//! Per-destination path properties.
//!
//! A [`Network`] answers one question: what does the path from this vantage
//! point to a given destination address look like? Each family has a
//! default profile, and one IPv6 prefix may take its own route: on an
//! IPv6-only line, the detour through the NAT64 gateway's RFC 6052 prefix.

use crate::Time;
use iputil::prefix::Prefix6;
use std::net::IpAddr;

/// The properties of one network path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// Round-trip time in microseconds.
    pub rtt: Time,
    /// Probability that a single packet (SYN) is lost, in `[0, 1]`.
    pub loss: f64,
    /// Hard reachability: `false` models a black-holed path (e.g. broken
    /// CPE IPv6, the paper's Residence C conjecture) where every packet is
    /// dropped regardless of `loss`.
    pub reachable: bool,
}

impl PathProfile {
    /// A healthy path with the given RTT in milliseconds and no loss.
    pub fn healthy_ms(rtt_ms: u64) -> PathProfile {
        PathProfile {
            rtt: rtt_ms * crate::MILLIS,
            loss: 0.0,
            reachable: true,
        }
    }

    /// A black-holed path: packets vanish.
    pub fn unreachable() -> PathProfile {
        PathProfile {
            rtt: 0,
            loss: 1.0,
            reachable: false,
        }
    }

    /// Validate invariants (loss in range, rtt sane).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.loss) {
            return Err(format!("loss {} outside [0,1]", self.loss));
        }
        Ok(())
    }
}

impl Default for PathProfile {
    fn default() -> Self {
        PathProfile::healthy_ms(30)
    }
}

/// The view of the network from one vantage point (e.g. a residence router
/// or a crawler machine).
#[derive(Debug, Clone)]
pub struct Network {
    v4_default: PathProfile,
    v6_default: PathProfile,
    route6: Option<(Prefix6, PathProfile)>,
}

impl Network {
    /// A network where every destination gets the family default profile.
    pub fn new(v4_default: PathProfile, v6_default: PathProfile) -> Network {
        v4_default.validate().expect("valid v4 default");
        v6_default.validate().expect("valid v6 default");
        Network {
            v4_default,
            v6_default,
            route6: None,
        }
    }

    /// A dual-stack network with identical healthy defaults.
    pub fn dual_stack_ms(rtt_ms: u64) -> Network {
        Network::new(
            PathProfile::healthy_ms(rtt_ms),
            PathProfile::healthy_ms(rtt_ms),
        )
    }

    /// Route every address in an IPv6 prefix over `profile`, whatever the
    /// IPv6 default. A network has at most one such route: a second call
    /// replaces the first.
    pub fn set_prefix6(&mut self, prefix: Prefix6, profile: PathProfile) {
        profile.validate().expect("valid profile");
        self.route6 = Some((prefix, profile));
    }

    /// Replace the per-family default profile.
    pub fn set_family_default(&mut self, family: iputil::Family, profile: PathProfile) {
        profile.validate().expect("valid profile");
        match family {
            iputil::Family::V4 => self.v4_default = profile,
            iputil::Family::V6 => self.v6_default = profile,
        }
    }

    /// Resolve the path profile for a destination: the IPv6 route when it
    /// covers `dst`, otherwise the family default.
    pub fn path_to(&self, dst: IpAddr) -> PathProfile {
        match dst {
            IpAddr::V4(_) => self.v4_default,
            IpAddr::V6(a) => match self.route6 {
                Some((prefix, profile)) if prefix.contains(a) => profile,
                _ => self.v6_default,
            },
        }
    }
}

impl Default for Network {
    fn default() -> Self {
        Network::dual_stack_ms(30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_apply_per_family() {
        let net = Network::new(PathProfile::healthy_ms(20), PathProfile::healthy_ms(18));
        assert_eq!(
            net.path_to("192.0.2.1".parse().unwrap()).rtt,
            20 * crate::MILLIS
        );
        assert_eq!(
            net.path_to("2001:db8::1".parse().unwrap()).rtt,
            18 * crate::MILLIS
        );
    }

    #[test]
    fn broken_v6_family() {
        let mut net = Network::dual_stack_ms(30);
        net.set_family_default(iputil::Family::V6, PathProfile::unreachable());
        assert!(!net.path_to("2001:db8::1".parse().unwrap()).reachable);
        assert!(net.path_to("192.0.2.1".parse().unwrap()).reachable);
    }

    #[test]
    #[should_panic(expected = "loss")]
    fn rejects_invalid_loss() {
        let mut net = Network::dual_stack_ms(10);
        net.set_family_default(
            iputil::Family::V4,
            PathProfile {
                rtt: 0,
                loss: 1.5,
                reachable: true,
            },
        );
    }
}
