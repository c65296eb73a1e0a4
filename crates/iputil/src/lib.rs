//! # iputil — IP address and prefix utilities
//!
//! Foundation crate for the `ipv6view` measurement suite. It provides the
//! pieces every other layer builds on:
//!
//! * [`prefix`] — CIDR prefixes for IPv4 and IPv6 with canonicalization,
//!   parsing, containment tests and supernet/subnet arithmetic.
//! * [`lpm`] — longest-prefix-match tables ([`Lpm4`]/[`Lpm6`]) behind the
//!   BGP RIB (`bgpsim`).
//! * [`multibit`] — the flattened Poptrie/DXR-style multibit engine every
//!   lookup runs on.
//! * [`hash`] — a self-contained SipHash-2-4 implementation (keyed PRF) used
//!   by the anonymizer; validated against the reference vectors from the
//!   SipHash paper.
//! * [`anon`] — prefix-preserving address anonymization in the style of
//!   CryptoPAN (Xu et al., ICNP 2002), as used by the paper's appendix A to
//!   scramble the low 8 bits of IPv4 addresses and the low /64 of IPv6
//!   addresses before flow logs leave the residence router.
//! * [`alloc`] — deterministic subnet and host allocators used by the world
//!   generator to hand out address space to ASes, clouds and residences.
//! * [`sym`] — interned symbol tables ([`sym::SymbolTable`]) and dense
//!   symbol-indexed maps ([`sym::SymVec`]): `u32` symbols replace repeated
//!   hashing of sparse `AsId`s and full name strings on the per-flow
//!   attribution hot paths.
//!
//! Everything here is deterministic: no ambient randomness, no system time.
//!
//! # LPM architecture: an ordered map and one compiled engine
//!
//! The suite performs longest-prefix-match at two very different rhythms —
//! RIB churn (announce/withdraw from the faults plane) and attribution
//! (hundreds of thousands of lookups against a table that is *not*
//! changing). [`Lpm4`]/[`Lpm6`] serve both with two pieces:
//!
//! * an **ordered map** `BTreeMap<(bits, len), V>` — the only state that
//!   `insert`, `remove`, `get` and `len` touch;
//! * a **compiled table** ([`FrozenLpm`]), built from the map's in-order
//!   iteration: a DIR-24-8-style direct root table over the first 16 bits
//!   plus stride-6 popcount-compressed node arrays with leaf-pushed results
//!   (see [`multibit`] for the layout). Every lookup — scalar,
//!   `longest_match_many` and `values_many` — runs on it.
//!
//! *When compile happens:* lazily, on the first lookup after a change.
//! `insert` and a successful `remove` drop the compiled table; the next
//! lookup recompiles it once and every later lookup shares it, from any
//! thread. A burst of churn therefore costs one recompile, not one per
//! mutation. `worldgen` issues one lookup per family after announcing the
//! RIB so that compile lands in world generation rather than in the first
//! attribution pass.
//!
//! *Batched lookups:* `longest_match_many` and `values_many` walk every
//! address with the interleaved prefetching walker (see [`multibit`]).

// `deny` rather than `forbid` solely for the one `#[allow(unsafe_code)]`
// software-prefetch intrinsic in `multibit` (a cache hint, no memory
// access); everything else stays safe code.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod anon;
pub mod hash;
pub mod lpm;
pub mod multibit;
pub mod prefix;
pub mod sym;

#[cfg(test)]
#[path = "lpm_semantics.rs"]
mod trie;

pub use alloc::{HostAllocator4, HostAllocator6, SubnetAllocator4, SubnetAllocator6};
pub use anon::{Anonymizer, AnonymizerConfig};
pub use hash::SipHasher24;
pub use lpm::{Lpm, Lpm4, Lpm6, LpmAddr};
pub use multibit::{Bits, FrozenLpm};
pub use prefix::{ParsePrefixError, Prefix, Prefix4, Prefix6};
pub use sym::{Sym, SymVec, SymbolTable};

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

/// Address family of an IP address, prefix or flow.
///
/// The whole point of the paper is to measure *how much* of the traffic is
/// [`Family::V6`] rather than whether V6 is possible at all, so this enum
/// shows up in practically every record type of the suite.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Family {
    /// IPv4.
    V4,
    /// IPv6.
    V6,
}

impl Family {
    /// The family of `addr`.
    pub fn of(addr: IpAddr) -> Family {
        match addr {
            IpAddr::V4(_) => Family::V4,
            IpAddr::V6(_) => Family::V6,
        }
    }

    /// Short lowercase label (`"v4"` / `"v6"`), used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Family::V4 => "v4",
            Family::V6 => "v6",
        }
    }
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Family::V4 => "IPv4",
            Family::V6 => "IPv6",
        })
    }
}

/// Convert an [`Ipv4Addr`] to its 32-bit big-endian integer value.
pub fn v4_to_u32(addr: Ipv4Addr) -> u32 {
    u32::from(addr)
}

/// Convert a 32-bit big-endian integer to an [`Ipv4Addr`].
pub fn u32_to_v4(bits: u32) -> Ipv4Addr {
    Ipv4Addr::from(bits)
}

/// Convert an [`Ipv6Addr`] to its 128-bit big-endian integer value.
pub fn v6_to_u128(addr: Ipv6Addr) -> u128 {
    u128::from(addr)
}

/// Convert a 128-bit big-endian integer to an [`Ipv6Addr`].
pub fn u128_to_v6(bits: u128) -> Ipv6Addr {
    Ipv6Addr::from(bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_of_addresses() {
        assert_eq!(Family::of(IpAddr::V4(Ipv4Addr::LOCALHOST)), Family::V4);
        assert_eq!(Family::of(IpAddr::V6(Ipv6Addr::LOCALHOST)), Family::V6);
    }

    #[test]
    fn family_labels_and_display() {
        assert_eq!(Family::V4.label(), "v4");
        assert_eq!(Family::V6.label(), "v6");
        assert_eq!(Family::V4.to_string(), "IPv4");
        assert_eq!(Family::V6.to_string(), "IPv6");
    }

    #[test]
    fn family_orders_v4_before_v6() {
        assert!(Family::V4 < Family::V6);
    }

    #[test]
    fn int_roundtrips() {
        let a = Ipv4Addr::new(192, 0, 2, 55);
        assert_eq!(u32_to_v4(v4_to_u32(a)), a);
        let b: Ipv6Addr = "2001:db8::42".parse().unwrap();
        assert_eq!(u128_to_v6(v6_to_u128(b)), b);
    }
}
