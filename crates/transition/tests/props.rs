//! Property and end-to-end tests for the transition stack: RFC 6052
//! round-trips over every legal prefix length, DNS64 shadowing rules, and
//! a full Happy Eyeballs race over a synthesized `AAAA` through the NAT64
//! gateway.

use dnssim::{Name, ResolveAddrs, Resolver, ZoneDb};
use iputil::prefix::Prefix6;
use iputil::Family;
use netsim::{Network, PathProfile, MILLIS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use transition::{Dns64, Nat64Prefix};

/// A random valid RFC 6052 prefix: one of the six legal lengths with the
/// reserved octet u zeroed out of the base bits.
fn arb_nat64_prefix() -> impl Strategy<Value = Nat64Prefix> {
    (any::<u128>(), 0usize..6).prop_map(|(bits, len_idx)| {
        let len = [32u8, 40, 48, 56, 64, 96][len_idx];
        // Zero octet u (address bits 64..72) so every length validates.
        let bits = bits & !(0xffu128 << 56);
        Nat64Prefix::new(Prefix6::new(Ipv6Addr::from(bits), len)).expect("valid prefix")
    })
}

proptest! {
    /// Embed then extract is the identity for every prefix length, and the
    /// embedded address always lies under the prefix with octet u zero.
    #[test]
    fn rfc6052_roundtrips_all_lengths(
        p in arb_nat64_prefix(),
        v4_bits in any::<u32>(),
    ) {
        let v4 = Ipv4Addr::from(v4_bits);
        let v6 = p.embed(v4);
        prop_assert!(p.contains(v6), "{v6} must lie under {p}");
        prop_assert_eq!(p.extract(v6), Some(v4), "prefix {}", p);
        // Octet u (bits 64..72) stays zero regardless of payload.
        prop_assert_eq!((u128::from(v6) >> 56) & 0xff, 0, "octet u for {}", p);
    }

    /// Two distinct IPv4 addresses never collide under the same prefix
    /// (embedding is injective).
    #[test]
    fn rfc6052_is_injective(
        p in arb_nat64_prefix(),
        a in any::<u32>(),
        b in any::<u32>(),
    ) {
        if a != b {
            prop_assert_ne!(p.embed(Ipv4Addr::from(a)), p.embed(Ipv4Addr::from(b)));
        }
    }

    /// DNS64 synthesizes exactly when there is no native AAAA, and a native
    /// AAAA — whenever one exists — is returned verbatim, never shadowed by
    /// a synthesized answer.
    #[test]
    fn synthesized_aaaa_never_shadows_native(
        p in arb_nat64_prefix(),
        v4s in proptest::collection::vec(any::<u32>(), 1..4),
        native6 in proptest::collection::vec(any::<u128>(), 0..3),
    ) {
        let mut db = ZoneDb::new();
        let name: Name = "svc.test".into();
        for bits in &v4s {
            db.add_a(name.clone(), Ipv4Addr::from(*bits));
        }
        for bits in &native6 {
            db.add_aaaa(name.clone(), Ipv6Addr::from(*bits));
        }
        let dns64 = Dns64::new(Resolver::new(&db), p);
        let lookup = dns64.lookup(&name);
        let answers = lookup.v6.addresses();
        if native6.is_empty() {
            prop_assert_eq!(answers.len(), {
                let mut uniq = v4s.clone();
                uniq.sort_unstable();
                uniq.dedup();
                uniq.len()
            });
            for a in answers {
                let IpAddr::V6(v6) = a else { panic!("AAAA answer must be v6") };
                let v4 = p.extract(*v6).expect("under the prefix");
                prop_assert!(v4s.contains(&u32::from(v4)));
            }
        } else {
            // Native AAAA present: passthrough, nothing synthesized.
            for a in answers {
                let IpAddr::V6(v6) = a else { panic!("AAAA answer must be v6") };
                prop_assert!(
                    native6.contains(&u128::from(*v6)),
                    "answer {} is not one of the native records", v6
                );
            }
        }
    }
}

/// The acceptance-path test: an IPv6-only client resolves a *v4-only*
/// service through DNS64, Happy Eyeballs races over the synthesized AAAA,
/// and the winning connection lands on the NAT64 gateway's prefix — from
/// which the true IPv4 destination is recoverable.
#[test]
fn happy_eyeballs_reaches_v4_only_service_through_nat64() {
    let mut db = ZoneDb::new();
    let v4a: Ipv4Addr = "198.51.100.10".parse().unwrap();
    let v4b: Ipv4Addr = "198.51.100.11".parse().unwrap();
    db.add_a("legacy.test".into(), v4a);
    db.add_a("legacy.test".into(), v4b);

    let prefix = Nat64Prefix::well_known();
    let dns64 = Dns64::new(Resolver::new(&db), prefix);

    // IPv6-only access: the IPv4 family default is black-holed; the NAT64
    // prefix is reachable (slightly slower: the gateway detour).
    let mut net = Network::dual_stack_ms(20);
    net.set_family_default(Family::V4, PathProfile::unreachable());
    net.set_prefix6(
        prefix.prefix(),
        PathProfile {
            rtt: 28 * MILLIS,
            loss: 0.0,
            reachable: true,
        },
    );

    let he = happyeyeballs::HappyEyeballs::default();
    let mut rng = SmallRng::seed_from_u64(42);
    let lookup = dns64.lookup(&"legacy.test".into());
    let report = he.connect(&net, &lookup, &mut rng, 0);

    assert!(report.connected(), "the race must succeed: {report:?}");
    assert_eq!(report.winning_family(), Some(Family::V6));
    let winner = report.winner.expect("connected");
    let IpAddr::V6(dst6) = winner.addr else {
        panic!("winner must be IPv6")
    };
    assert!(prefix.contains(dst6), "winner rides the NAT64 prefix");
    let recovered = prefix.extract(dst6).expect("RFC 6052 payload");
    assert!(
        recovered == v4a || recovered == v4b,
        "the gateway forwards to one of the service's real IPv4 endpoints"
    );
    // The v4 resolution succeeded (A records exist) but no IPv4 attempt can
    // ever win on this network.
    assert!(lookup.v4.is_success());
    assert!(report.attempts.iter().all(|a| a.family == Family::V6
        || !matches!(a.outcome, netsim::ConnectOutcome::Connected { .. })));
}

/// The pathological flip side: the same v4-only service on a *dual-stack*
/// client behind a DNS64 resolver looks IPv6-enabled, so Happy Eyeballs
/// prefers the translated path even though a faster native IPv4 path
/// exists. (RFC 6147 §5.1.6's motivation for never shadowing native AAAA —
/// here there is none to protect, and the preference costs the detour.)
#[test]
fn dns64_makes_v4_only_service_win_over_v6() {
    let mut db = ZoneDb::new();
    let v4: Ipv4Addr = "198.51.100.10".parse().unwrap();
    db.add_a("legacy.test".into(), v4);

    let prefix = Nat64Prefix::well_known();
    let dns64 = Dns64::new(Resolver::new(&db), prefix);

    // Dual-stack network: native IPv4 is *faster* (10 ms) than the
    // translated path (40 ms), yet IPv6 preference wins the race because
    // both answers arrive together and v6 connects before the 250 ms
    // stagger ever starts an IPv4 attempt.
    let mut net = Network::dual_stack_ms(10);
    net.set_prefix6(
        prefix.prefix(),
        PathProfile {
            rtt: 40 * MILLIS,
            loss: 0.0,
            reachable: true,
        },
    );

    let he = happyeyeballs::HappyEyeballs::default();
    let mut rng = SmallRng::seed_from_u64(7);
    let report = he.connect(&net, &dns64.lookup(&"legacy.test".into()), &mut rng, 0);
    assert_eq!(
        report.winning_family(),
        Some(Family::V6),
        "DNS64 makes the v4-only service look v6 and the preference sticks"
    );
    assert_eq!(
        report.attempts_of(Family::V4),
        0,
        "the faster native v4 path is never even attempted"
    );

    // Without DNS64 the same client uses plain IPv4.
    let plain = Resolver::new(&db);
    let report2 = he.connect(&net, &plain.lookup(&"legacy.test".into()), &mut rng, 0);
    assert_eq!(report2.winning_family(), Some(Family::V4));
}
