//! Stateful translators and tunnel concentrators: NAT64 and the DS-Lite
//! AFTR.
//!
//! Both carrier-side elements share one scarce resource: a pool of
//! IPv4 addresses × ports from which per-flow **bindings** are allocated.
//! When the binding table is full, new flows are rejected until old bindings
//! time out — the exhaustion scenario studied in the transition-technology
//! comparison literature (CGN port exhaustion under heavy residential load).
//! [`BindingTable`] models that resource. A NAT64 gateway (RFC 6146) is a
//! binding table plus the RFC 6052 mapping of [`crate::rfc6052`]; a DS-Lite
//! AFTR's NAT44 is a bare [`BindingTable`]: its inner IPv4 flows need a
//! binding but no mapping.

use serde::Serialize;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Microseconds (matches the `netsim`/`flowmon` clock).
pub type Time = u64;

/// Capacity/timeout parameters of a binding table.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct GatewayConfig {
    /// Maximum simultaneous bindings (pool addresses × usable ports; the
    /// suite's sampled flow volumes make a few thousand "large").
    pub capacity: usize,
    /// How long a binding outlives its flow before the port is reusable
    /// (conntrack-style timeout), in microseconds.
    pub binding_timeout: Time,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            capacity: 4096,
            binding_timeout: 120 * 1_000_000,
        }
    }
}

/// Why a translator refused a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// Every pool port is bound; the flow is dropped (the client sees a
    /// connection failure).
    PoolExhausted,
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::PoolExhausted => write!(f, "translator port pool exhausted"),
        }
    }
}

impl std::error::Error for BindError {}

/// Lifetime counters of a binding table (exported with experiment results).
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct GatewayStats {
    /// Bindings granted.
    pub granted: u64,
    /// Flows rejected because the pool was exhausted.
    pub rejected: u64,
    /// Highest simultaneous binding count observed.
    pub peak_active: usize,
}

impl GatewayStats {
    /// Fraction of flows rejected (0 when nothing was offered).
    pub fn rejection_rate(&self) -> f64 {
        let total = self.granted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.rejected as f64 / total as f64
        }
    }

    /// Fold another table's counters into this one (used when per-day
    /// gateway instances are merged into one run-level summary).
    pub fn absorb(&mut self, other: GatewayStats) {
        self.granted += other.granted;
        self.rejected += other.rejected;
        self.peak_active = self.peak_active.max(other.peak_active);
    }
}

/// The shared port-binding resource: a capacity-bounded set of bindings with
/// timeout-based expiry, driven by flow start/end times.
///
/// Expiry is lazy: each [`BindingTable::bind`] first releases bindings whose
/// expiry precedes the new flow's start. Synthesis feeds flows in roughly
/// increasing start order; small inversions inside an hour only delay reuse
/// by the inversion amount, keeping the model deterministic without a global
/// sort.
#[derive(Debug, Clone, Default)]
pub struct BindingTable {
    config: GatewayConfig,
    /// Expiry times of active bindings (min-heap).
    active: BinaryHeap<Reverse<Time>>,
    stats: GatewayStats,
}

impl BindingTable {
    /// An empty table with the given limits.
    pub fn new(config: GatewayConfig) -> BindingTable {
        BindingTable {
            config,
            active: BinaryHeap::new(),
            stats: GatewayStats::default(),
        }
    }

    /// Try to bind a flow lasting `[start, end]`.
    pub fn bind(&mut self, start: Time, end: Time) -> Result<(), BindError> {
        while let Some(&Reverse(expiry)) = self.active.peek() {
            if expiry <= start {
                self.active.pop();
            } else {
                break;
            }
        }
        if self.active.len() >= self.config.capacity {
            self.stats.rejected += 1;
            return Err(BindError::PoolExhausted);
        }
        self.active.push(Reverse(
            end.max(start).saturating_add(self.config.binding_timeout),
        ));
        self.stats.granted += 1;
        self.stats.peak_active = self.stats.peak_active.max(self.active.len());
        Ok(())
    }

    /// Currently active bindings.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// The configured limits.
    pub fn config(&self) -> GatewayConfig {
        self.config
    }

    /// Resize the pool in place (fault-plane shrink/restore). Bindings
    /// already held above a shrunken capacity persist until they expire;
    /// only new binds see the new limit — so shrink followed by restore
    /// replays deterministically.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.config.capacity = capacity;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(capacity: usize, timeout: Time) -> GatewayConfig {
        GatewayConfig {
            capacity,
            binding_timeout: timeout,
        }
    }

    #[test]
    fn bindings_grant_until_capacity_then_reject() {
        let mut t = BindingTable::new(tiny(2, 10));
        assert!(t.bind(0, 100).is_ok());
        assert!(t.bind(0, 100).is_ok());
        assert_eq!(t.bind(0, 100), Err(BindError::PoolExhausted));
        let s = t.stats();
        assert_eq!((s.granted, s.rejected, s.peak_active), (2, 1, 2));
    }

    #[test]
    fn bindings_expire_after_timeout() {
        let mut t = BindingTable::new(tiny(1, 10));
        assert!(t.bind(0, 100).is_ok());
        // Still bound at end + timeout - 1.
        assert_eq!(t.bind(109, 200), Err(BindError::PoolExhausted));
        // Free at end + timeout.
        assert!(t.bind(110, 200).is_ok());
        assert_eq!(t.active_count(), 1);
    }

    #[test]
    fn nat64_exhaustion_counts_rejections() {
        let mut t = BindingTable::new(tiny(3, 1_000_000_000));
        let rejected = (0..10u64).filter(|&i| t.bind(i, i + 1).is_err()).count();
        assert_eq!(rejected, 7);
        assert!((t.stats().rejection_rate() - 0.7).abs() < 1e-12);
        assert_eq!(t.stats().peak_active, 3);
    }
}
