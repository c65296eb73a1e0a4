//! Flow identification and records.

use crate::Timestamp;
use iputil::Family;
use serde::{Deserialize, Serialize};
use std::net::IpAddr;

/// Transport protocol of a flow (the monitor tracks TCP, UDP and ICMP,
/// like the paper's §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Proto {
    /// TCP.
    Tcp,
    /// UDP.
    Udp,
    /// ICMP / ICMPv6 (ports are zero; identified by [`IcmpMeta`]).
    Icmp,
}

/// ICMP metadata recorded in place of ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct IcmpMeta {
    /// ICMP type.
    pub icmp_type: u8,
    /// ICMP code.
    pub icmp_code: u8,
    /// Echo identifier (0 when not applicable).
    pub icmp_id: u16,
}

/// A flow key: the conntrack tuple as seen from the flow originator.
///
/// Keys order lexicographically by (protocol, addresses, ports, ICMP
/// metadata); the total order exists so eviction/export paths can sort
/// key sets deterministically (a `HashMap` iteration order is not).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// Transport protocol.
    pub proto: Proto,
    /// Originator address.
    pub src: IpAddr,
    /// Responder address.
    pub dst: IpAddr,
    /// Originator port (0 for ICMP).
    pub sport: u16,
    /// Responder port (0 for ICMP).
    pub dport: u16,
    /// ICMP metadata when `proto == Icmp`.
    pub icmp: Option<IcmpMeta>,
}

impl FlowKey {
    /// A TCP flow key.
    pub fn tcp(src: IpAddr, sport: u16, dst: IpAddr, dport: u16) -> FlowKey {
        FlowKey {
            proto: Proto::Tcp,
            src,
            dst,
            sport,
            dport,
            icmp: None,
        }
    }

    /// A UDP flow key.
    pub fn udp(src: IpAddr, sport: u16, dst: IpAddr, dport: u16) -> FlowKey {
        FlowKey {
            proto: Proto::Udp,
            src,
            dst,
            sport,
            dport,
            icmp: None,
        }
    }

    /// An ICMP flow key (echo request/reply style).
    ///
    /// # Panics
    /// Panics if the two endpoints are of different families — such a packet
    /// cannot exist.
    pub fn icmp(src: IpAddr, dst: IpAddr, meta: IcmpMeta) -> FlowKey {
        let k = FlowKey {
            proto: Proto::Icmp,
            src,
            dst,
            sport: 0,
            dport: 0,
            icmp: Some(meta),
        };
        k.assert_same_family();
        k
    }

    /// Address family of the flow.
    ///
    /// # Panics
    /// Panics (debug) when endpoints disagree; flows never mix families.
    pub fn family(&self) -> Family {
        self.assert_same_family();
        Family::of(self.src)
    }

    fn assert_same_family(&self) {
        debug_assert_eq!(
            Family::of(self.src),
            Family::of(self.dst),
            "flow endpoints must share a family"
        );
    }
}

/// LAN scoping of a flow, the external/internal split of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scope {
    /// LAN ↔ WAN.
    External,
    /// LAN ↔ LAN.
    Internal,
}

/// A completed flow, produced at `DESTROY` time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The conntrack tuple.
    pub key: FlowKey,
    /// `NEW` event timestamp.
    pub start: Timestamp,
    /// `DESTROY` event timestamp.
    pub end: Timestamp,
    /// Bytes sent by the originator.
    pub bytes_orig: u64,
    /// Bytes sent by the responder.
    pub bytes_reply: u64,
    /// Packets sent by the originator.
    pub packets_orig: u64,
    /// Packets sent by the responder.
    pub packets_reply: u64,
    /// Internal or external.
    pub scope: Scope,
}

impl FlowRecord {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_orig + self.bytes_reply
    }

    /// Address family.
    pub fn family(&self) -> Family {
        self.key.family()
    }

    /// Flow duration in microseconds.
    pub fn duration(&self) -> Timestamp {
        self.end.saturating_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_constructors() {
        let t = FlowKey::tcp(
            "192.168.1.10".parse().unwrap(),
            50000,
            "203.0.113.1".parse().unwrap(),
            443,
        );
        assert_eq!(t.proto, Proto::Tcp);
        assert_eq!(t.family(), Family::V4);

        let u = FlowKey::udp(
            "2001:db8::10".parse().unwrap(),
            5353,
            "2001:db8::1".parse().unwrap(),
            53,
        );
        assert_eq!(u.family(), Family::V6);

        let i = FlowKey::icmp(
            "192.168.1.10".parse().unwrap(),
            "8.8.8.8".parse().unwrap(),
            IcmpMeta {
                icmp_type: 8,
                icmp_code: 0,
                icmp_id: 77,
            },
        );
        assert_eq!(i.proto, Proto::Icmp);
        assert_eq!(i.sport, 0);
    }

    #[test]
    fn record_accessors() {
        let r = FlowRecord {
            key: FlowKey::tcp(
                "192.168.1.10".parse().unwrap(),
                50000,
                "203.0.113.1".parse().unwrap(),
                443,
            ),
            start: 1_000_000,
            end: 5_000_000,
            bytes_orig: 1000,
            bytes_reply: 9000,
            packets_orig: 10,
            packets_reply: 12,
            scope: Scope::External,
        };
        assert_eq!(r.total_bytes(), 10_000);
        assert_eq!(r.duration(), 4_000_000);
        assert_eq!(r.family(), Family::V4);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "family")]
    fn mixed_family_flow_is_a_bug() {
        let _ = FlowKey::tcp(
            "192.168.1.10".parse().unwrap(),
            1,
            "2001:db8::1".parse().unwrap(),
            2,
        )
        .family();
    }
}
