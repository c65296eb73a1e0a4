//! Translated-vs-native flow classification.
//!
//! Transition technologies leave address-level fingerprints a router can
//! read back out of its own flow table: a NAT64/464XLAT flow is an IPv6 flow
//! whose destination sits under an RFC 6052 translation prefix, and on a
//! DS-Lite line every external IPv4 flow is by construction riding the
//! softwire to the AFTR. [`TranslationMap`] encodes that knowledge so the
//! monitor (and the analysis layer) can grade traffic as native or
//! translated without any generation-side ground truth — the same
//! measurement-only discipline as the rest of the suite.

use crate::flow::{FlowKey, Scope};
use iputil::prefix::Prefix6;
use serde::Serialize;
use std::net::IpAddr;

/// How a flow reached the outside world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Translation {
    /// Native, untranslated traffic of either family.
    Native,
    /// IPv6 flow towards an RFC 6052 translation prefix: the true
    /// destination is IPv4, reached through a NAT64 gateway (directly via
    /// DNS64, or CLAT→PLAT on a 464XLAT line).
    Nat64,
    /// IPv4 flow tunneled inside IPv6 to a DS-Lite AFTR.
    DsLite,
}

impl Translation {
    /// Short label for report tables.
    pub fn label(self) -> &'static str {
        match self {
            Translation::Native => "native",
            Translation::Nat64 => "nat64",
            Translation::DsLite => "ds-lite",
        }
    }
}

/// Router-side knowledge needed to classify translation provenance.
#[derive(Debug, Clone, Copy)]
pub struct TranslationMap {
    nat64: Prefix6,
    dslite_b4: bool,
}

impl TranslationMap {
    /// A map for a router whose provider translates under the RFC 6052
    /// prefix `nat64` (e.g. `64:ff9b::/96`); `dslite_b4` marks a DS-Lite
    /// B4, whose external IPv4 is all tunneled.
    pub fn new(nat64: Prefix6, dslite_b4: bool) -> TranslationMap {
        TranslationMap { nat64, dslite_b4 }
    }

    /// Classify one flow (scope from the router's LAN view).
    pub fn classify(&self, key: &FlowKey, scope: Scope) -> Translation {
        if scope == Scope::Internal {
            return Translation::Native;
        }
        match key.dst {
            IpAddr::V6(dst) if self.nat64.contains(dst) => Translation::Nat64,
            IpAddr::V4(_) if self.dslite_b4 => Translation::DsLite,
            _ => Translation::Native,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(dslite_b4: bool) -> TranslationMap {
        TranslationMap::new("64:ff9b::/96".parse().unwrap(), dslite_b4)
    }

    #[test]
    fn nat64_destinations_are_translated() {
        let m = map(false);
        let key = FlowKey::tcp(
            "2001:db8:1::5".parse().unwrap(),
            40000,
            "64:ff9b::c633:6407".parse().unwrap(),
            443,
        );
        assert_eq!(m.classify(&key, Scope::External), Translation::Nat64);
        let native = FlowKey::tcp(
            "2001:db8:1::5".parse().unwrap(),
            40001,
            "2600::1".parse().unwrap(),
            443,
        );
        assert_eq!(m.classify(&native, Scope::External), Translation::Native);
    }

    #[test]
    fn dslite_marks_external_v4_only() {
        let m = map(true);
        let v4 = FlowKey::tcp(
            "192.168.1.5".parse().unwrap(),
            40000,
            "198.51.100.1".parse().unwrap(),
            443,
        );
        assert_eq!(m.classify(&v4, Scope::External), Translation::DsLite);
        assert_eq!(
            m.classify(&v4, Scope::Internal),
            Translation::Native,
            "LAN traffic never rides the softwire"
        );
        let v6 = FlowKey::tcp(
            "2001:db8:1::5".parse().unwrap(),
            40000,
            "2600::1".parse().unwrap(),
            443,
        );
        assert_eq!(m.classify(&v6, Scope::External), Translation::Native);
    }

    #[test]
    fn default_map_is_all_native() {
        // Only the configured prefix translates: under a network-specific
        // one, a would-be well-known NAT64 destination is native.
        let m = TranslationMap::new("2001:db8:122::/48".parse().unwrap(), false);
        let key6 = FlowKey::tcp(
            "2001:db8::1".parse().unwrap(),
            1,
            "64:ff9b::c000:221".parse().unwrap(),
            2,
        );
        assert_eq!(m.classify(&key6, Scope::External), Translation::Native);
    }

    #[test]
    fn labels() {
        assert_eq!(Translation::Native.label(), "native");
        assert_eq!(Translation::Nat64.label(), "nat64");
        assert_eq!(Translation::DsLite.label(), "ds-lite");
    }
}
