//! Property tests for Happy Eyeballs: liveness (connects when anything is
//! reachable), family soundness, and timing monotonicity.

use dnssim::{Name, ResolveAddrs, Resolver, ZoneDb};
use happyeyeballs::{HappyEyeballs, HappyEyeballsConfig};
use iputil::Family;
use netsim::{Network, PathProfile, MILLIS};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn zone(has_a: bool, has_aaaa: bool) -> ZoneDb {
    let mut db = ZoneDb::new();
    if has_a {
        db.add_a("svc.test".into(), "192.0.2.1".parse().unwrap());
    }
    if has_aaaa {
        db.add_aaaa("svc.test".into(), "2001:db8::1".parse().unwrap());
    }
    db
}

proptest! {
    /// If at least one family has records and a reachable path, the race
    /// connects — and only ever to a family that actually has records.
    #[test]
    fn liveness_and_soundness(
        has_a in any::<bool>(),
        has_aaaa in any::<bool>(),
        v4_up in any::<bool>(),
        v6_up in any::<bool>(),
        rtt4 in 5u64..200,
        rtt6 in 5u64..200,
        seed in any::<u64>(),
    ) {
        let db = zone(has_a, has_aaaa);
        let lookup = Resolver::new(&db).lookup(&Name::new("svc.test"));
        let mut net = Network::new(
            if v4_up { PathProfile::healthy_ms(rtt4) } else { PathProfile::unreachable() },
            if v6_up { PathProfile::healthy_ms(rtt6) } else { PathProfile::unreachable() },
        );
        net.set_family_default(Family::V4, if v4_up { PathProfile::healthy_ms(rtt4) } else { PathProfile::unreachable() });
        net.set_family_default(Family::V6, if v6_up { PathProfile::healthy_ms(rtt6) } else { PathProfile::unreachable() });
        let he = HappyEyeballs::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let report = he.connect(&net, &lookup, &mut rng, 0);

        let can_v4 = has_a && v4_up;
        let can_v6 = has_aaaa && v6_up;
        if can_v4 || can_v6 {
            prop_assert!(report.connected(), "must connect when a path exists");
            let fam = report.winning_family().unwrap();
            match fam {
                Family::V4 => prop_assert!(can_v4),
                Family::V6 => prop_assert!(can_v6),
            }
        } else {
            prop_assert!(!report.connected());
        }
        // Attempts only target families that resolved.
        for a in &report.attempts {
            match a.family {
                Family::V4 => prop_assert!(has_a),
                Family::V6 => prop_assert!(has_aaaa),
            }
        }
        // The winner appears in the attempt list.
        if let Some(w) = report.winner {
            prop_assert!(report.attempts.iter().any(|a| a == &w));
        }
    }

    /// IPv6 preference: on a healthy dual-stack with comparable RTTs, IPv6
    /// wins — regardless of seed (there is no loss to race on).
    #[test]
    fn v6_preference_is_deterministic(rtt in 5u64..100, seed in any::<u64>()) {
        let db = zone(true, true);
        let lookup = Resolver::new(&db).lookup(&Name::new("svc.test"));
        let net = Network::dual_stack_ms(rtt);
        let he = HappyEyeballs::default();
        let mut rng = SmallRng::seed_from_u64(seed);
        let report = he.connect(&net, &lookup, &mut rng, 0);
        prop_assert_eq!(report.winning_family(), Some(Family::V6));
    }

    /// Attempt start times respect the stagger: second attempt never starts
    /// before the first, and not before the connection attempt delay unless
    /// the first attempt failed earlier.
    #[test]
    fn stagger_ordering(seed in any::<u64>(), delay_ms in 50u64..500) {
        let db = zone(true, true);
        let lookup = Resolver::new(&db).lookup(&Name::new("svc.test"));
        let mut net = Network::dual_stack_ms(10);
        // Slow v6 so a second attempt actually launches.
        net.set_family_default(
            Family::V6,
            PathProfile { rtt: 2_000 * MILLIS, loss: 0.0, reachable: true },
        );
        let cfg = HappyEyeballsConfig {
            connection_attempt_delay: delay_ms * MILLIS,
            ..HappyEyeballsConfig::default()
        };
        let he = HappyEyeballs::new(cfg);
        let mut rng = SmallRng::seed_from_u64(seed);
        let report = he.connect(&net, &lookup, &mut rng, 0);
        prop_assert!(report.attempts.len() >= 2);
        let t0 = report.attempts[0].started_at;
        let t1 = report.attempts[1].started_at;
        prop_assert!(t1 >= t0);
        prop_assert!(t1 >= t0 + delay_ms * MILLIS || t1 >= t0 + 10 * MILLIS);
    }
}
