//! Longest-prefix-match tables: an ordered prefix map plus a lazily
//! compiled [`FrozenLpm`] that answers every lookup.
//!
//! An [`Lpm`] ([`Lpm4`] / [`Lpm6`]) keeps its prefixes in a `BTreeMap`
//! keyed by `(network bits, prefix length)` — the only state `insert`,
//! `remove`, `get` and `len` touch. The first lookup after a change
//! compiles the map into the flattened multibit engine
//! ([`crate::multibit`]); the compiled table is shared by every later
//! lookup until the next `insert` or `remove` drops it. A table therefore
//! recompiles at most once per mutation burst, however many lookups follow.

use crate::multibit::{Bits, FrozenLpm};
use crate::prefix::{Prefix4, Prefix6};
use std::collections::BTreeMap;
use std::net::{Ipv4Addr, Ipv6Addr};
use std::sync::OnceLock;

/// An address family as [`Lpm`] sees it: how addresses and prefixes map
/// onto the compiled engine's integer keys. Implemented for [`Ipv4Addr`]
/// and [`Ipv6Addr`].
pub trait LpmAddr: Copy {
    /// The engine key (`u32` / `u128`).
    type Key: Bits;
    /// The family's prefix type.
    type Prefix;
    /// The address as an engine key.
    fn key(self) -> Self::Key;
    /// A prefix as `(network bits, length)`.
    fn prefix_key(prefix: &Self::Prefix) -> (Self::Key, u8);
    /// The `len`-bit prefix containing this address.
    fn prefix(self, len: u8) -> Self::Prefix;
}

impl LpmAddr for Ipv4Addr {
    type Key = u32;
    type Prefix = Prefix4;

    fn key(self) -> u32 {
        crate::v4_to_u32(self)
    }

    fn prefix_key(prefix: &Prefix4) -> (u32, u8) {
        (prefix.bits(), prefix.len())
    }

    fn prefix(self, len: u8) -> Prefix4 {
        Prefix4::new(self, len)
    }
}

impl LpmAddr for Ipv6Addr {
    type Key = u128;
    type Prefix = Prefix6;

    fn key(self) -> u128 {
        crate::v6_to_u128(self)
    }

    fn prefix_key(prefix: &Prefix6) -> (u128, u8) {
        (prefix.bits(), prefix.len())
    }

    fn prefix(self, len: u8) -> Prefix6 {
        Prefix6::new(self, len)
    }
}

/// Longest-prefix-match table over addresses of type `A`.
///
/// ```
/// use iputil::Lpm4;
/// let mut t: Lpm4<&str> = Lpm4::new();
/// t.insert("10.0.0.0/8".parse().unwrap(), "10/8");
/// t.insert("10.20.0.0/16".parse().unwrap(), "10.20/16");
/// let (p, v) = t.longest_match("10.20.1.1".parse().unwrap()).unwrap();
/// assert_eq!((p.to_string().as_str(), *v), ("10.20.0.0/16", "10.20/16"));
/// // A mutation drops the compiled table; the next lookup sees it.
/// t.remove("10.20.0.0/16".parse().unwrap());
/// let (p, _) = t.longest_match("10.20.1.1".parse().unwrap()).unwrap();
/// assert_eq!(p.to_string(), "10.0.0.0/8");
/// assert!(t.longest_match("11.0.0.1".parse().unwrap()).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Lpm<A: LpmAddr, V> {
    map: BTreeMap<(A::Key, u8), V>,
    compiled: OnceLock<FrozenLpm<A::Key, V>>,
}

/// Longest-prefix-match table for IPv4.
pub type Lpm4<V> = Lpm<Ipv4Addr, V>;

/// Longest-prefix-match table for IPv6.
pub type Lpm6<V> = Lpm<Ipv6Addr, V>;

impl<A: LpmAddr, V> Default for Lpm<A, V> {
    fn default() -> Self {
        Lpm::new()
    }
}

impl<A: LpmAddr, V> Lpm<A, V> {
    /// Create an empty table.
    pub fn new() -> Lpm<A, V> {
        Lpm {
            map: BTreeMap::new(),
            compiled: OnceLock::new(),
        }
    }

    /// Insert a prefix, returning any previous value for the exact prefix.
    pub fn insert(&mut self, prefix: A::Prefix, value: V) -> Option<V> {
        self.compiled = OnceLock::new();
        self.map.insert(A::prefix_key(&prefix), value)
    }

    /// Remove an exact prefix, returning its value.
    pub fn remove(&mut self, prefix: A::Prefix) -> Option<V> {
        let removed = self.map.remove(&A::prefix_key(&prefix));
        if removed.is_some() {
            self.compiled = OnceLock::new();
        }
        removed
    }

    /// Exact-match lookup.
    pub fn get(&self, prefix: A::Prefix) -> Option<&V> {
        self.map.get(&A::prefix_key(&prefix))
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl<A: LpmAddr, V: Clone> Lpm<A, V> {
    fn compiled(&self) -> &FrozenLpm<A::Key, V> {
        self.compiled.get_or_init(|| FrozenLpm::from_map(&self.map))
    }

    /// Most specific covering prefix for `addr`.
    #[inline]
    pub fn longest_match(&self, addr: A) -> Option<(A::Prefix, &V)> {
        self.compiled()
            .longest_match(addr.key())
            .map(|(len, v)| (addr.prefix(len), v))
    }

    /// Batched [`Lpm::longest_match`] over a slice, preserving input order
    /// (interleaved prefetching walks — see
    /// [`FrozenLpm::longest_match_many`]).
    pub fn longest_match_many(&self, addrs: &[A]) -> Vec<Option<(A::Prefix, &V)>> {
        let keys: Vec<A::Key> = addrs.iter().map(|&a| a.key()).collect();
        self.compiled()
            .longest_match_many(&keys)
            .into_iter()
            .zip(addrs)
            .map(|(r, &a)| r.map(|(len, v)| (a.prefix(len), v)))
            .collect()
    }

    /// Batched value-only lookup (see [`FrozenLpm::values_many`]).
    pub fn values_many(&self, addrs: &[A]) -> Vec<Option<&V>> {
        let keys: Vec<A::Key> = addrs.iter().map(|&a| a.key()).collect();
        self.compiled().values_many(&keys)
    }
}

/// The step harness behind the lookup-semantics cases (`crate::trie`'s
/// tests): each case is a list of [`tests::Step`]s run by [`tests::check`].
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::prefix::Prefix;
    use std::net::IpAddr;

    /// One step of a lookup-semantics case. Prefixes and addresses are
    /// text; the family decides which table a step drives.
    pub(crate) enum Step {
        /// Insert `prefix → value`, expecting the replaced value.
        Insert(&'static str, u32, Option<u32>),
        /// Remove `prefix`, expecting the removed value.
        Remove(&'static str, Option<u32>),
        /// Look up `addr`, expecting the covering prefix and its value.
        Lookup(&'static str, Option<(&'static str, u32)>),
        /// The IPv4 table's stored prefixes, in map order.
        Keys(&'static [&'static str]),
        /// The number of prefixes stored across both families.
        Len(usize),
    }
    use Step::{Insert, Keys, Len, Lookup, Remove};

    #[derive(Default)]
    struct Tables {
        v4: Lpm4<u32>,
        v6: Lpm6<u32>,
    }

    type Answer = Option<(Prefix, u32)>;

    /// Scalar, batched (with a duplicate) and value-only answers for `a`:
    /// all three must agree.
    fn answers<A: LpmAddr>(t: &Lpm<A, u32>, a: A) -> (Answer, Vec<Answer>, Option<u32>)
    where
        A::Prefix: Into<Prefix>,
    {
        let one = |r: Option<(A::Prefix, &u32)>| r.map(|(p, v)| (p.into(), *v));
        let batched = t.longest_match_many(&[a, a]).into_iter().map(one).collect();
        (
            one(t.longest_match(a)),
            batched,
            t.values_many(&[a])[0].copied(),
        )
    }

    impl Tables {
        fn run(&mut self, case: &str, step: &Step) {
            match *step {
                Insert(p, value, want) => {
                    let got = match p.parse::<Prefix>().expect("prefix") {
                        Prefix::V4(p) => self.v4.insert(p, value),
                        Prefix::V6(p) => self.v6.insert(p, value),
                    };
                    assert_eq!(got, want, "{case}: insert {p}");
                    let stored = match p.parse::<Prefix>().expect("prefix") {
                        Prefix::V4(p) => self.v4.get(p),
                        Prefix::V6(p) => self.v6.get(p),
                    };
                    assert_eq!(stored, Some(&value), "{case}: get {p}");
                }
                Remove(p, want) => {
                    let got = match p.parse::<Prefix>().expect("prefix") {
                        Prefix::V4(p) => self.v4.remove(p),
                        Prefix::V6(p) => self.v6.remove(p),
                    };
                    assert_eq!(got, want, "{case}: remove {p}");
                }
                Lookup(addr, want) => {
                    let want = want.map(|(p, v)| (p.parse::<Prefix>().expect("prefix"), v));
                    let (scalar, batched, values) = match addr.parse::<IpAddr>().expect("addr") {
                        IpAddr::V4(a) => answers(&self.v4, a),
                        IpAddr::V6(a) => answers(&self.v6, a),
                    };
                    assert_eq!(scalar, want, "{case}: lookup {addr}");
                    assert_eq!(batched, vec![want, want], "{case}: batched {addr}");
                    assert_eq!(values, want.map(|(_, v)| v), "{case}: values {addr}");
                }
                Keys(want) => {
                    let got: Vec<String> = self
                        .v4
                        .map
                        .keys()
                        .map(|&(bits, len)| Prefix4::new(Ipv4Addr::from(bits), len).to_string())
                        .collect();
                    assert_eq!(got, want, "{case}: keys");
                }
                Len(want) => {
                    assert_eq!(self.v4.len() + self.v6.len(), want, "{case}: len");
                }
            }
        }
    }

    /// Run one lookup-semantics case on a small table (linear-scan
    /// compile), then again next to 16 anchor prefixes per family (root
    /// table plus multibit nodes). `Keys` and `Len` describe the small
    /// table only.
    pub(crate) fn check(steps: &[Step]) {
        let mut small = Tables::default();
        for step in steps {
            small.run("small table", step);
        }
        let mut anchored = Tables::default();
        for i in 0..16u32 {
            let v4 = Prefix4::new(Ipv4Addr::from(0xb000_0000 + (i << 16)), 16);
            let v6 = Prefix6::new(Ipv6Addr::from(0xfd00u128 << 112 | (i as u128) << 96), 32);
            anchored.v4.insert(v4, 900 + i);
            anchored.v6.insert(v6, 900 + i);
        }
        for step in steps {
            if !matches!(step, Keys(_) | Len(_)) {
                anchored.run("anchored table", step);
            }
        }
    }

    /// A lookup after a mutation must see the mutation, never the table
    /// compiled before it; a clone keeps answering for what it copied.
    #[test]
    fn lookups_after_churn_see_the_current_table() {
        let mut t4: Lpm4<u32> = Lpm4::new();
        t4.insert("10.0.0.0/8".parse().unwrap(), 1);
        let a4: Ipv4Addr = "10.9.0.1".parse().unwrap();
        assert_eq!(t4.longest_match(a4).map(|(_, v)| *v), Some(1));
        let before = t4.clone();
        t4.insert("10.9.0.0/16".parse().unwrap(), 2);
        assert_eq!(t4.longest_match(a4).map(|(_, v)| *v), Some(2));
        assert_eq!(t4.values_many(&[a4]), vec![Some(&2)]);
        t4.remove("10.0.0.0/8".parse().unwrap());
        t4.remove("10.9.0.0/16".parse().unwrap());
        assert_eq!(t4.longest_match(a4), None);
        assert_eq!(before.longest_match(a4).map(|(_, v)| *v), Some(1));

        let mut t6: Lpm6<u32> = Lpm6::new();
        t6.insert("2001:db8::/32".parse().unwrap(), 1);
        let a6: Ipv6Addr = "2001:db8:1::1".parse().unwrap();
        assert_eq!(t6.longest_match(a6).map(|(_, v)| *v), Some(1));
        let before = t6.clone();
        t6.insert("2001:db8:1::/48".parse().unwrap(), 2);
        assert_eq!(t6.longest_match(a6).map(|(_, v)| *v), Some(2));
        assert_eq!(t6.values_many(&[a6]), vec![Some(&2)]);
        t6.remove("2001:db8::/32".parse().unwrap());
        t6.remove("2001:db8:1::/48".parse().unwrap());
        assert_eq!(t6.longest_match(a6), None);
        assert_eq!(before.longest_match(a6).map(|(_, v)| *v), Some(1));
    }
}
