//! The access-technology dimension of a residence.
//!
//! The paper argues adoption is non-binary; transition technologies are
//! *how* the middle of that spectrum is engineered in practice. Each variant
//! here is one deployed answer to "what does this access network give the
//! subscriber natively, and what is translated or tunneled?".

use serde::Serialize;

/// How a residence's access network provides IPv4 and IPv6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum AccessTech {
    /// Native IPv4 and native IPv6 side by side (the classic dual-stack the
    /// paper's residences A–E run).
    NativeDualStack,
    /// Legacy IPv4-only access; no IPv6 at all.
    V4Only,
    /// IPv6-only access with NAT64 + DNS64 in the provider network: IPv4
    /// destinations are reached via synthesized `AAAA` records and the
    /// stateful gateway. Hosts have no IPv4 stack on the wire.
    Ipv6OnlyNat64,
    /// 464XLAT (RFC 6877): IPv6-only access plus a customer-side CLAT, so
    /// IPv4-literal applications still get a v4 socket; everything crosses
    /// the wire as IPv6 and legacy traffic is translated twice (CLAT→PLAT).
    Xlat464,
    /// DS-Lite (RFC 6333): native IPv6 with IPv4-as-a-service — v4 packets
    /// ride an IPv4-in-IPv6 softwire to a carrier AFTR running NAT44.
    DsLite,
}

impl AccessTech {
    /// Short label used in report tables and export keys.
    pub fn label(self) -> &'static str {
        match self {
            AccessTech::NativeDualStack => "dual-stack",
            AccessTech::V4Only => "v4-only",
            AccessTech::Ipv6OnlyNat64 => "v6only+nat64",
            AccessTech::Xlat464 => "464xlat",
            AccessTech::DsLite => "ds-lite",
        }
    }

    /// Is the access network IPv6-only on the wire (every flow leaves the
    /// residence as IPv6)?
    pub fn v6_only_wire(self) -> bool {
        matches!(self, AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464)
    }

    /// Does the provisioning include a DNS64 resolver?
    pub fn uses_dns64(self) -> bool {
        self.v6_only_wire()
    }

    /// Does reaching the IPv4 Internet consume stateful gateway bindings
    /// (NAT64 for the v6-only techs, the AFTR's NAT44 for DS-Lite)?
    pub fn uses_gateway(self) -> bool {
        matches!(
            self,
            AccessTech::Ipv6OnlyNat64 | AccessTech::Xlat464 | AccessTech::DsLite
        )
    }

    /// Every modeled technology, in report order.
    pub fn all() -> [AccessTech; 5] {
        [
            AccessTech::NativeDualStack,
            AccessTech::V4Only,
            AccessTech::Ipv6OnlyNat64,
            AccessTech::Xlat464,
            AccessTech::DsLite,
        ]
    }
}

impl std::fmt::Display for AccessTech {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_are_consistent() {
        for t in AccessTech::all() {
            if t.v6_only_wire() {
                assert!(t.uses_dns64());
                assert!(t.uses_gateway());
            }
        }
        assert!(!AccessTech::NativeDualStack.uses_gateway());
        assert!(!AccessTech::V4Only.uses_gateway());
        assert!(AccessTech::DsLite.uses_gateway());
        assert!(!AccessTech::DsLite.uses_dns64());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            AccessTech::all().iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), 5);
        assert_eq!(AccessTech::Xlat464.to_string(), "464xlat");
    }
}
