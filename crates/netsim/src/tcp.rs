//! TCP connection-establishment model.
//!
//! Happy Eyeballs cares about exactly one thing per address: *when* (and
//! whether) a TCP connection to it becomes established. We model the
//! three-way handshake as: send SYN; the SYN (or its SYN-ACK) is lost with
//! the path's loss probability; lost SYNs are retransmitted with exponential
//! backoff (1 s initial RTO, doubling, like Linux's `tcp_syn_retries`
//! behaviour); a surviving SYN completes the handshake one RTT after it was
//! sent. Unreachable paths never complete and fail when retries are
//! exhausted.

use crate::path::Network;
use crate::{Time, SECONDS};
use rand::Rng;
use std::net::IpAddr;

/// Why a connection attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectError {
    /// All SYN (re)transmissions were lost; gave up at the reported time.
    TimedOut,
}

/// Result of a simulated connect: established at a time, or failed at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectOutcome {
    /// Handshake completed at the given absolute time.
    Connected {
        /// Absolute completion time.
        at: Time,
        /// How many SYNs were sent in total (1 = no retransmission).
        syn_count: u32,
    },
    /// Attempt abandoned at the given absolute time.
    Failed {
        /// Absolute failure time.
        at: Time,
        /// Failure reason.
        reason: ConnectError,
    },
}

impl ConnectOutcome {
    /// The absolute time the attempt resolved either way.
    pub fn resolved_at(&self) -> Time {
        match self {
            ConnectOutcome::Connected { at, .. } => *at,
            ConnectOutcome::Failed { at, .. } => *at,
        }
    }
}

/// Simulates TCP connection establishment over a [`Network`].
#[derive(Debug, Clone, Copy)]
pub struct TcpConnector {
    /// Initial retransmission timeout (Linux default: 1 s).
    pub initial_rto: Time,
    /// Number of SYN retransmissions before giving up (Linux default: 6;
    /// we default to 3 to keep simulated tail latencies reasonable, matching
    /// tuned client stacks).
    pub syn_retries: u32,
}

impl Default for TcpConnector {
    fn default() -> Self {
        TcpConnector {
            initial_rto: SECONDS,
            syn_retries: 3,
        }
    }
}

impl TcpConnector {
    /// Simulate a connect to `dst` starting at absolute time `start`.
    ///
    /// Deterministic given the RNG state: each SYN consumes exactly one
    /// `rng.gen::<f64>()` draw when the path is lossy (no draws on clean or
    /// black-holed paths).
    pub fn connect<R: Rng + ?Sized>(
        &self,
        net: &Network,
        rng: &mut R,
        dst: IpAddr,
        start: Time,
    ) -> ConnectOutcome {
        let path = net.path_to(dst);
        let mut send_time = start;
        let mut rto = self.initial_rto;
        for attempt in 0..=self.syn_retries {
            let syn_count = attempt + 1;
            let delivered = path.reachable && (path.loss <= 0.0 || rng.gen::<f64>() >= path.loss);
            if delivered {
                return ConnectOutcome::Connected {
                    at: send_time + path.rtt,
                    syn_count,
                };
            }
            if attempt < self.syn_retries {
                send_time += rto;
                rto *= 2;
            } else {
                // Final timeout expires one RTO after the last SYN.
                return ConnectOutcome::Failed {
                    at: send_time + rto,
                    reason: ConnectError::TimedOut,
                };
            }
        }
        unreachable!("loop always returns");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PathProfile;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn clean_path_connects_in_one_rtt() {
        let net = Network::dual_stack_ms(25);
        let out =
            TcpConnector::default().connect(&net, &mut rng(), "192.0.2.1".parse().unwrap(), 1_000);
        assert_eq!(
            out,
            ConnectOutcome::Connected {
                at: 1_000 + 25 * crate::MILLIS,
                syn_count: 1
            }
        );
    }

    #[test]
    fn unreachable_path_times_out_after_backoff() {
        let mut net = Network::dual_stack_ms(25);
        net.set_family_default(iputil::Family::V6, PathProfile::unreachable());
        let c = TcpConnector {
            initial_rto: SECONDS,
            syn_retries: 3,
        };
        let out = c.connect(&net, &mut rng(), "2001:db8::1".parse().unwrap(), 0);
        // SYNs at 0, 1s, 3s, 7s; final timeout at 7s + 8s = 15s.
        assert_eq!(
            out,
            ConnectOutcome::Failed {
                at: 15 * SECONDS,
                reason: ConnectError::TimedOut
            }
        );
    }

    #[test]
    fn lossy_path_eventually_connects() {
        let mut net = Network::dual_stack_ms(10);
        net.set_family_default(
            iputil::Family::V4,
            PathProfile {
                rtt: 10 * crate::MILLIS,
                loss: 0.5,
                reachable: true,
            },
        );
        let c = TcpConnector::default();
        let mut r = rng();
        let mut connected = 0;
        let mut retried = 0;
        for _ in 0..200 {
            match c.connect(&net, &mut r, "198.51.100.1".parse().unwrap(), 0) {
                ConnectOutcome::Connected { syn_count, .. } => {
                    connected += 1;
                    if syn_count > 1 {
                        retried += 1;
                    }
                }
                ConnectOutcome::Failed { .. } => {}
            }
        }
        // With 50% loss and 4 SYNs, ~94% connect; many need retransmission.
        assert!(connected > 170, "connected {connected}/200");
        assert!(retried > 30, "retried {retried}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut net = Network::dual_stack_ms(10);
        net.set_family_default(
            iputil::Family::V4,
            PathProfile {
                rtt: 10 * crate::MILLIS,
                loss: 0.3,
                reachable: true,
            },
        );
        let c = TcpConnector::default();
        let a = c.connect(&net, &mut rng(), "198.51.100.1".parse().unwrap(), 0);
        let b = c.connect(&net, &mut rng(), "198.51.100.1".parse().unwrap(), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_retries_single_shot() {
        let mut net = Network::dual_stack_ms(10);
        net.set_family_default(iputil::Family::V4, PathProfile::unreachable());
        let c = TcpConnector {
            initial_rto: SECONDS,
            syn_retries: 0,
        };
        let out = c.connect(&net, &mut rng(), "192.0.2.9".parse().unwrap(), 0);
        assert_eq!(
            out,
            ConnectOutcome::Failed {
                at: SECONDS,
                reason: ConnectError::TimedOut
            }
        );
    }
}
