//! The router-side monitor: scope classification of observed flows.

use crate::flow::{FlowKey, FlowRecord, Scope};
use crate::Timestamp;
use iputil::prefix::{Prefix4, Prefix6};
use std::net::IpAddr;

/// A residence router running the flow monitor.
///
/// Configured with the LAN prefix of the residence in each family (the
/// RFC1918 v4 LAN and the delegated IPv6 prefix); every flow is classified
/// as [`Scope::Internal`] when *both* endpoints are inside the LAN,
/// otherwise [`Scope::External`] — the exact split reported per-residence
/// in Table 1.
#[derive(Debug, Clone, Copy)]
pub struct RouterMonitor {
    lan4: Prefix4,
    lan6: Prefix6,
}

impl RouterMonitor {
    /// Create a monitor for a residence with the given LAN prefixes.
    pub fn new(lan4: Prefix4, lan6: Prefix6) -> RouterMonitor {
        RouterMonitor { lan4, lan6 }
    }

    /// Is an address inside this residence's LAN?
    pub fn is_lan(&self, addr: IpAddr) -> bool {
        match addr {
            IpAddr::V4(a) => self.lan4.contains(a),
            IpAddr::V6(a) => self.lan6.contains(a),
        }
    }

    /// Scope of a flow between two endpoints.
    pub fn scope_of(&self, src: IpAddr, dst: IpAddr) -> Scope {
        if self.is_lan(src) && self.is_lan(dst) {
            Scope::Internal
        } else {
            Scope::External
        }
    }

    /// Build the completed record the router logs for a whole flow — scope
    /// classification plus the packet estimate. The streaming pipeline
    /// observes flows this way and pushes them straight into a
    /// [`crate::sink::FlowSink`].
    pub fn observe(
        &self,
        key: FlowKey,
        start: Timestamp,
        end: Timestamp,
        bytes_orig: u64,
        bytes_reply: u64,
    ) -> FlowRecord {
        debug_assert!(end >= start);
        let scope = self.scope_of(key.src, key.dst);
        // Packet counts estimated from bytes at a nominal 1200 B/packet,
        // minimum 1 — the analyses only use byte and flow counts.
        let pkts = |b: u64| (b / 1200).max(1);
        FlowRecord {
            key,
            start,
            end,
            bytes_orig,
            bytes_reply,
            packets_orig: pkts(bytes_orig),
            packets_reply: pkts(bytes_reply),
            scope,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router() -> RouterMonitor {
        RouterMonitor::new(
            "192.168.1.0/24".parse().unwrap(),
            "2001:db8:1000::/56".parse().unwrap(),
        )
    }

    #[test]
    fn scoping() {
        let r = router();
        let lan: IpAddr = "192.168.1.5".parse().unwrap();
        let lan2: IpAddr = "192.168.1.6".parse().unwrap();
        let wan: IpAddr = "203.0.113.9".parse().unwrap();
        assert_eq!(r.scope_of(lan, lan2), Scope::Internal);
        assert_eq!(r.scope_of(lan, wan), Scope::External);
        assert_eq!(r.scope_of(wan, lan), Scope::External);

        let lan6: IpAddr = "2001:db8:1000:1::5".parse().unwrap();
        let wan6: IpAddr = "2001:db8:9999::1".parse().unwrap();
        assert_eq!(r.scope_of(lan6, lan6), Scope::Internal);
        assert_eq!(r.scope_of(lan6, wan6), Scope::External);
    }

    #[test]
    fn inject_applies_scope_and_packets() {
        let r = router();
        let key = FlowKey::tcp(
            "192.168.1.5".parse().unwrap(),
            40000,
            "192.168.1.6".parse().unwrap(),
            445,
        );
        let rec = r.observe(key, 0, 100, 2400, 120_000);
        assert_eq!(rec.scope, Scope::Internal);
        assert_eq!(rec.packets_orig, 2);
        assert_eq!(rec.packets_reply, 100);
    }
}
