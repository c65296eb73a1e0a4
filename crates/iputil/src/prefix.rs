//! CIDR prefixes for IPv4 and IPv6.
//!
//! A prefix is stored in canonical form: all bits beyond the prefix length
//! are zero. Construction via [`Prefix4::new`] / [`Prefix6::new`]
//! canonicalizes automatically; parsing (`"203.0.113.0/24".parse()`) rejects
//! nothing but syntax errors and over-long lengths.

use crate::{u128_to_v6, u32_to_v4, v4_to_u32, v6_to_u128};
use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

/// Error returned when parsing a prefix from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParsePrefixError {
    /// The string did not contain exactly one `/`.
    MissingSlash,
    /// The address part did not parse.
    BadAddress,
    /// The length part did not parse as an integer.
    BadLength,
    /// The length exceeded the family maximum (32 or 128).
    LengthOutOfRange {
        /// Parsed length.
        len: u8,
        /// Maximum allowed for the family.
        max: u8,
    },
}

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParsePrefixError::MissingSlash => write!(f, "prefix must contain a single '/'"),
            ParsePrefixError::BadAddress => write!(f, "invalid address part"),
            ParsePrefixError::BadLength => write!(f, "invalid length part"),
            ParsePrefixError::LengthOutOfRange { len, max } => {
                write!(f, "prefix length {len} exceeds family maximum {max}")
            }
        }
    }
}

impl std::error::Error for ParsePrefixError {}

/// An IPv4 CIDR prefix in canonical form (host bits zeroed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix4 {
    bits: u32,
    len: u8,
}

impl Prefix4 {
    /// Build a prefix from an address and length, zeroing host bits.
    ///
    /// # Panics
    /// Panics if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Prefix4 {
        assert!(len <= 32, "IPv4 prefix length {len} > 32");
        Prefix4 {
            bits: v4_to_u32(addr) & mask32(len),
            len,
        }
    }

    /// The canonical network address.
    pub fn network(self) -> Ipv4Addr {
        u32_to_v4(self.bits)
    }

    /// The raw network bits (big-endian u32).
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Prefix length in bits (a CIDR length, not a container size).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Does this prefix contain `addr`?
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        v4_to_u32(addr) & mask32(self.len) == self.bits
    }

    /// Does this prefix fully cover `other` (i.e. `other` is equal or more
    /// specific)?
    pub fn covers(self, other: Prefix4) -> bool {
        self.len <= other.len && other.bits & mask32(self.len) == self.bits
    }

    /// Number of host addresses in the prefix (saturating at `u64::MAX`).
    pub fn size(self) -> u64 {
        1u64 << (32 - self.len as u32)
    }

    /// The `index`-th subnet of length `new_len` inside this prefix.
    ///
    /// Returns `None` if `new_len` is shorter than the current length or
    /// `index` does not fit in the available bits.
    pub fn subnet(self, new_len: u8, index: u64) -> Option<Prefix4> {
        if new_len < self.len || new_len > 32 {
            return None;
        }
        let extra = new_len - self.len;
        if extra < 64 && index >= (1u64 << extra) {
            return None;
        }
        let shifted = if new_len == 0 {
            0
        } else {
            (index as u32) << (32 - new_len as u32)
        };
        Some(Prefix4 {
            bits: self.bits | shifted,
            len: new_len,
        })
    }

    /// The `index`-th host address inside this prefix, or `None` if out of
    /// range.
    pub fn host(self, index: u64) -> Option<Ipv4Addr> {
        if index >= self.size() {
            return None;
        }
        Some(u32_to_v4(self.bits | index as u32))
    }
}

impl fmt::Display for Prefix4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix4 {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = split_cidr(s)?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| ParsePrefixError::BadAddress)?;
        if len > 32 {
            return Err(ParsePrefixError::LengthOutOfRange { len, max: 32 });
        }
        Ok(Prefix4::new(addr, len))
    }
}

/// An IPv6 CIDR prefix in canonical form (host bits zeroed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Prefix6 {
    bits: u128,
    len: u8,
}

impl Prefix6 {
    /// Build a prefix from an address and length, zeroing host bits.
    ///
    /// # Panics
    /// Panics if `len > 128`.
    pub fn new(addr: Ipv6Addr, len: u8) -> Prefix6 {
        assert!(len <= 128, "IPv6 prefix length {len} > 128");
        Prefix6 {
            bits: v6_to_u128(addr) & mask128(len),
            len,
        }
    }

    /// The canonical network address.
    pub fn network(self) -> Ipv6Addr {
        u128_to_v6(self.bits)
    }

    /// The raw network bits (big-endian u128).
    pub fn bits(self) -> u128 {
        self.bits
    }

    /// Prefix length in bits (a CIDR length, not a container size).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Does this prefix contain `addr`?
    pub fn contains(self, addr: Ipv6Addr) -> bool {
        v6_to_u128(addr) & mask128(self.len) == self.bits
    }

    /// Does this prefix fully cover `other`?
    pub fn covers(self, other: Prefix6) -> bool {
        self.len <= other.len && other.bits & mask128(self.len) == self.bits
    }

    /// The `index`-th subnet of length `new_len` inside this prefix.
    pub fn subnet(self, new_len: u8, index: u128) -> Option<Prefix6> {
        if new_len < self.len || new_len > 128 {
            return None;
        }
        let extra = new_len - self.len;
        if extra < 128 && index >= (1u128 << extra) {
            return None;
        }
        let shifted = if new_len == 0 {
            0
        } else {
            index << (128 - new_len as u32)
        };
        Some(Prefix6 {
            bits: self.bits | shifted,
            len: new_len,
        })
    }

    /// The `index`-th host address inside this prefix, or `None` if out of
    /// range (ranges larger than 2^64 are treated as unbounded for `index`
    /// purposes).
    pub fn host(self, index: u128) -> Option<Ipv6Addr> {
        let width = 128 - self.len as u32;
        if width < 128 && index >= (1u128 << width) {
            return None;
        }
        Some(u128_to_v6(self.bits | index))
    }
}

impl fmt::Display for Prefix6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Prefix6 {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = split_cidr(s)?;
        let addr: Ipv6Addr = addr.parse().map_err(|_| ParsePrefixError::BadAddress)?;
        if len > 128 {
            return Err(ParsePrefixError::LengthOutOfRange { len, max: 128 });
        }
        Ok(Prefix6::new(addr, len))
    }
}

/// A prefix of either family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Prefix {
    /// IPv4 prefix.
    V4(Prefix4),
    /// IPv6 prefix.
    V6(Prefix6),
}

impl Prefix {
    /// Family of this prefix.
    pub fn family(self) -> crate::Family {
        match self {
            Prefix::V4(_) => crate::Family::V4,
            Prefix::V6(_) => crate::Family::V6,
        }
    }

    /// Prefix length in bits (a CIDR length, not a container size).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> u8 {
        match self {
            Prefix::V4(p) => p.len(),
            Prefix::V6(p) => p.len(),
        }
    }

    /// Does this prefix contain `addr`? Addresses of the other family are
    /// never contained.
    pub fn contains(self, addr: IpAddr) -> bool {
        match (self, addr) {
            (Prefix::V4(p), IpAddr::V4(a)) => p.contains(a),
            (Prefix::V6(p), IpAddr::V6(a)) => p.contains(a),
            _ => false,
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prefix::V4(p) => p.fmt(f),
            Prefix::V6(p) => p.fmt(f),
        }
    }
}

impl FromStr for Prefix {
    type Err = ParsePrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.contains(':') {
            s.parse::<Prefix6>().map(Prefix::V6)
        } else {
            s.parse::<Prefix4>().map(Prefix::V4)
        }
    }
}

impl From<Prefix4> for Prefix {
    fn from(p: Prefix4) -> Prefix {
        Prefix::V4(p)
    }
}

impl From<Prefix6> for Prefix {
    fn from(p: Prefix6) -> Prefix {
        Prefix::V6(p)
    }
}

/// 32-bit netmask for a prefix length (0..=32).
pub fn mask32(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len as u32)
    }
}

/// 128-bit netmask for a prefix length (0..=128).
pub fn mask128(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - len as u32)
    }
}

fn split_cidr(s: &str) -> Result<(&str, u8), ParsePrefixError> {
    let mut it = s.splitn(2, '/');
    let addr = it.next().ok_or(ParsePrefixError::MissingSlash)?;
    let len = it.next().ok_or(ParsePrefixError::MissingSlash)?;
    let len: u8 = len.parse().map_err(|_| ParsePrefixError::BadLength)?;
    Ok((addr, len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonicalizes_host_bits() {
        let p = Prefix4::new(Ipv4Addr::new(203, 0, 113, 77), 24);
        assert_eq!(p.network(), Ipv4Addr::new(203, 0, 113, 0));
        assert_eq!(p.to_string(), "203.0.113.0/24");
    }

    #[test]
    fn parse_and_display_roundtrip_v4() {
        let p: Prefix4 = "10.32.0.0/11".parse().unwrap();
        assert_eq!(p.to_string(), "10.32.0.0/11");
        assert_eq!(p.len(), 11);
    }

    #[test]
    fn parse_and_display_roundtrip_v6() {
        let p: Prefix6 = "2001:db8:40::/44".parse().unwrap();
        assert_eq!(p.len(), 44);
        assert!(p.contains("2001:db8:4f::1".parse().unwrap()));
        assert!(!p.contains("2001:db8:50::1".parse().unwrap()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(
            "10.0.0.0".parse::<Prefix4>(),
            Err(ParsePrefixError::MissingSlash)
        );
        assert_eq!(
            "10.0.0.0/33".parse::<Prefix4>(),
            Err(ParsePrefixError::LengthOutOfRange { len: 33, max: 32 })
        );
        assert_eq!(
            "bogus/8".parse::<Prefix4>(),
            Err(ParsePrefixError::BadAddress)
        );
        assert_eq!(
            "10.0.0.0/x".parse::<Prefix4>(),
            Err(ParsePrefixError::BadLength)
        );
        assert_eq!(
            "::/129".parse::<Prefix6>(),
            Err(ParsePrefixError::LengthOutOfRange { len: 129, max: 128 })
        );
    }

    #[test]
    fn contains_boundaries() {
        let p: Prefix4 = "192.0.2.0/24".parse().unwrap();
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 0)));
        assert!(p.contains(Ipv4Addr::new(192, 0, 2, 255)));
        assert!(!p.contains(Ipv4Addr::new(192, 0, 3, 0)));
        assert!(!p.contains(Ipv4Addr::new(192, 0, 1, 255)));
    }

    #[test]
    fn default_routes_contain_everything() {
        let d4: Prefix4 = "0.0.0.0/0".parse().unwrap();
        let d6: Prefix6 = "::/0".parse().unwrap();
        assert!(d4.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(d6.contains("ffff::1".parse().unwrap()));
    }

    #[test]
    fn covers_relation() {
        let big: Prefix4 = "10.0.0.0/8".parse().unwrap();
        let small: Prefix4 = "10.20.0.0/16".parse().unwrap();
        assert!(big.covers(small));
        assert!(!small.covers(big));
        assert!(big.covers(big));
        let other: Prefix4 = "11.0.0.0/8".parse().unwrap();
        assert!(!big.covers(other));
    }

    #[test]
    fn subnets_and_hosts_v4() {
        let p: Prefix4 = "10.0.0.0/8".parse().unwrap();
        assert_eq!(p.subnet(24, 0).unwrap().to_string(), "10.0.0.0/24");
        assert_eq!(p.subnet(24, 257).unwrap().to_string(), "10.1.1.0/24");
        assert!(p.subnet(24, (1 << 16) - 1).is_some());
        assert!(p.subnet(24, 1 << 16).is_none());
        assert!(p.subnet(4, 0).is_none(), "cannot widen a prefix");
        let s = p.subnet(24, 3).unwrap();
        assert_eq!(s.host(7).unwrap(), Ipv4Addr::new(10, 0, 3, 7));
        assert!(s.host(256).is_none());
    }

    #[test]
    fn subnets_and_hosts_v6() {
        let p: Prefix6 = "2001:db8::/32".parse().unwrap();
        let s = p.subnet(48, 5).unwrap();
        assert_eq!(s.to_string(), "2001:db8:5::/48");
        let h = s.host(0x42).unwrap();
        assert_eq!(h, "2001:db8:5::42".parse::<Ipv6Addr>().unwrap());
        // /0 host indexing is unbounded.
        let all: Prefix6 = "::/0".parse().unwrap();
        assert!(all.host(u128::MAX).is_some());
    }

    #[test]
    fn size_of_prefixes() {
        assert_eq!("10.0.0.0/8".parse::<Prefix4>().unwrap().size(), 1 << 24);
        assert_eq!("10.0.0.0/32".parse::<Prefix4>().unwrap().size(), 1);
        assert_eq!("0.0.0.0/0".parse::<Prefix4>().unwrap().size(), 1 << 32);
    }

    #[test]
    fn mixed_prefix_enum() {
        let p: Prefix = "198.51.100.0/24".parse().unwrap();
        assert_eq!(p.family(), crate::Family::V4);
        assert!(p.contains("198.51.100.9".parse().unwrap()));
        assert!(!p.contains("2001:db8::1".parse().unwrap()));
        let q: Prefix = "2001:db8::/32".parse().unwrap();
        assert_eq!(q.family(), crate::Family::V6);
        assert_eq!(q.len(), 32);
    }

    #[test]
    fn masks() {
        assert_eq!(mask32(0), 0);
        assert_eq!(mask32(32), u32::MAX);
        assert_eq!(mask32(24), 0xffff_ff00);
        assert_eq!(mask128(0), 0);
        assert_eq!(mask128(128), u128::MAX);
        assert_eq!(mask128(64), !0u128 << 64);
    }
}
