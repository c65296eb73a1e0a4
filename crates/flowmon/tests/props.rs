//! Property tests for the flow monitor: export invariance and scoping.

use flowmon::{AnonymizingExporter, FlowKey, FlowRecord, RouterMonitor, Scope};
use iputil::anon::{Anonymizer, AnonymizerConfig};
use iputil::prefix::Prefix6;
use proptest::prelude::*;
use std::net::{IpAddr, Ipv6Addr};

fn key(port: u16) -> FlowKey {
    FlowKey::tcp(
        "192.168.1.2".parse().unwrap(),
        port,
        "203.0.113.9".parse().unwrap(),
        443,
    )
}

proptest! {
    /// Anonymized export preserves counts, bytes, timestamps and scope; it
    /// changes only addresses, prefix-preservingly.
    #[test]
    fn export_invariants(flows in proptest::collection::vec((1u16..9999, 1u64..1_000_000, 1u64..500_000), 1..60)) {
        let records: Vec<FlowRecord> = flows
            .iter()
            .map(|(port, end, bytes)| FlowRecord {
                key: key(*port),
                start: end.saturating_sub(100),
                end: *end,
                bytes_orig: *bytes,
                bytes_reply: bytes * 3,
                packets_orig: 2,
                packets_reply: 4,
                scope: Scope::External,
            })
            .collect();
        let exporter = AnonymizingExporter::new(Anonymizer::new(
            *b"prop-test-key-00",
            AnonymizerConfig::paper(),
        ));
        let logs = exporter.export(&records);
        let exported: Vec<FlowRecord> = logs.into_iter().flat_map(|l| l.records).collect();
        prop_assert_eq!(exported.len(), records.len());
        let sum = |rs: &[FlowRecord]| rs.iter().map(FlowRecord::total_bytes).sum::<u64>();
        prop_assert_eq!(sum(&exported), sum(&records));
        // Daily logs are ordered and each record is in its own day.
        for r in &exported {
            // Paper config: /24 and /64 kept — same src for all (same host).
            if let IpAddr::V4(a) = r.key.src {
                prop_assert_eq!(a.octets()[..3].to_vec(), vec![192, 168, 1]);
            }
        }
    }

    /// Router scoping: a flow is Internal iff both endpoints are in the LAN,
    /// in each family. The v6 LAN host is the /56's first or last address
    /// or one inside it; the v6 WAN host is the first address past the /56.
    #[test]
    fn scoping_is_conjunction(
        a_lan in any::<bool>(),
        b_lan in any::<bool>(),
        host in 1u8..250,
        edge in 0usize..3,
    ) {
        let lan6: Prefix6 = "2001:db8:1000::/56".parse().unwrap();
        let router = RouterMonitor::new("192.168.1.0/24".parse().unwrap(), lan6);
        let first = lan6.bits();
        let last = first | (u128::MAX >> 56);
        let inside = first | (u128::from(host) << 64) | u128::from(host);
        let v6 = |bits: u128| IpAddr::V6(Ipv6Addr::from(bits));
        let families = [
            (
                format!("192.168.1.{host}").parse().unwrap(),
                format!("203.0.113.{host}").parse().unwrap(),
            ),
            (v6([first, last, inside][edge]), v6(last + 1)),
        ];
        for (lan, wan) in families {
            let src = if a_lan { lan } else { wan };
            let dst = if b_lan { lan } else { wan };
            let expected = if a_lan && b_lan { Scope::Internal } else { Scope::External };
            prop_assert_eq!(router.scope_of(src, dst), expected);
        }
    }
}
