//! Property tests for the discrete-event substrate.

use iputil::prefix::Prefix6;
use netsim::{ConnectOutcome, EventQueue, Network, PathProfile, TcpConnector, MILLIS, SECONDS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

proptest! {
    /// Events always pop in non-decreasing time order, whatever the
    /// insertion order.
    #[test]
    fn queue_orders_events(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        let mut last = 0;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Ties break by insertion order (determinism).
    #[test]
    fn queue_fifo_on_ties(n in 1usize..100) {
        let mut q: EventQueue<usize> = EventQueue::new();
        for i in 0..n {
            q.schedule_at(42, i);
        }
        for expect in 0..n {
            let (_, got) = q.pop().unwrap();
            prop_assert_eq!(got, expect);
        }
    }

    /// On a lossless reachable path, connect always succeeds exactly one RTT
    /// after start; on an unreachable path it always fails, after a delay
    /// that grows with the retry budget.
    #[test]
    fn connect_outcomes_are_lawful(
        rtt_ms in 1u64..500,
        retries in 0u32..6,
        start in 0u64..1_000_000,
        seed in any::<u64>(),
    ) {
        let connector = TcpConnector { initial_rto: SECONDS, syn_retries: retries };
        let mut rng = SmallRng::seed_from_u64(seed);

        let net = Network::dual_stack_ms(rtt_ms);
        match connector.connect(&net, &mut rng, "192.0.2.1".parse().unwrap(), start) {
            ConnectOutcome::Connected { at, syn_count } => {
                prop_assert_eq!(at, start + rtt_ms * MILLIS);
                prop_assert_eq!(syn_count, 1);
            }
            ConnectOutcome::Failed { .. } => prop_assert!(false, "clean path must connect"),
        }

        let mut dead = Network::dual_stack_ms(rtt_ms);
        dead.set_family_default(iputil::Family::V4, PathProfile::unreachable());
        match connector.connect(&dead, &mut rng, "192.0.2.1".parse().unwrap(), start) {
            ConnectOutcome::Failed { at, .. } => {
                // Total wait: sum of RTOs 1+2+...+2^retries seconds.
                let expected = start + ((1u64 << (retries + 1)) - 1) * SECONDS;
                prop_assert_eq!(at, expected);
            }
            ConnectOutcome::Connected { .. } => {
                prop_assert!(false, "unreachable path must not connect")
            }
        }
    }

    /// Path resolution: an address gets the IPv6 route's profile iff the
    /// route's prefix contains it, and its family default otherwise.
    #[test]
    fn path_precedence(
        v4 in any::<u32>(),
        v6 in any::<u128>(),
        net6 in any::<u128>(),
        len in 0u8..=128,
        near in any::<bool>(),
    ) {
        let (v4_ms, v6_ms, route_ms) = (20, 30, 80);
        let mut net = Network::new(PathProfile::healthy_ms(v4_ms), PathProfile::healthy_ms(v6_ms));
        let prefix = Prefix6::new(Ipv6Addr::from(net6), len);
        net.set_prefix6(prefix, PathProfile::healthy_ms(route_ms));
        // Half the v6 draws share the route's network bits above the last
        // 8, so both sides of long prefixes are exercised.
        let v6 = Ipv6Addr::from(if near { net6 ^ (v6 & 0xff) } else { v6 });
        let expect6 = if prefix.contains(v6) { route_ms } else { v6_ms };
        prop_assert_eq!(net.path_to(IpAddr::V6(v6)).rtt / MILLIS, expect6);
        prop_assert_eq!(net.path_to(IpAddr::V4(Ipv4Addr::from(v4))).rtt / MILLIS, v4_ms);
    }
}
