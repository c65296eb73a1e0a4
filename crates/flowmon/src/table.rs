//! The connection-tracking table.

use crate::flow::{Direction, FlowKey, FlowRecord, Scope};
use crate::Timestamp;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct ActiveFlow {
    start: Timestamp,
    last_seen: Timestamp,
    bytes_orig: u64,
    bytes_reply: u64,
    packets_orig: u64,
    packets_reply: u64,
    scope: Scope,
}

/// A conntrack-style flow table.
///
/// Lifecycle mirrors the kernel events the paper's monitor subscribes to:
/// [`FlowTable::on_new`] (conntrack `NEW`), [`FlowTable::on_packet`]
/// (accounting), [`FlowTable::on_destroy`] (conntrack `DESTROY`, which emits
/// the [`FlowRecord`]). [`FlowTable::evict_idle`] models conntrack timeouts
/// for flows that never see a FIN.
#[derive(Debug, Clone, Default)]
pub struct FlowTable {
    active: HashMap<FlowKey, ActiveFlow>,
    /// Completed flows waiting for [`FlowTable::drain`].
    completed: Vec<FlowRecord>,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Number of currently tracked (active) flows.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Number of completed, undrained records.
    pub fn completed_count(&self) -> usize {
        self.completed.len()
    }

    /// Handle a conntrack `NEW` event. Duplicate `NEW` for an active key is
    /// ignored (the kernel never emits it; synthetic feeds might).
    pub fn on_new(&mut self, key: FlowKey, ts: Timestamp, scope: Scope) {
        self.active.entry(key).or_insert(ActiveFlow {
            start: ts,
            last_seen: ts,
            bytes_orig: 0,
            bytes_reply: 0,
            packets_orig: 0,
            packets_reply: 0,
            scope,
        });
    }

    /// Account one packet to an active flow. Unknown keys are ignored
    /// (packets racing a `DESTROY`, as in the real kernel feed).
    pub fn on_packet(&mut self, key: &FlowKey, ts: Timestamp, dir: Direction, bytes: u64) {
        if let Some(f) = self.active.get_mut(key) {
            f.last_seen = f.last_seen.max(ts);
            match dir {
                Direction::Original => {
                    f.bytes_orig += bytes;
                    f.packets_orig += 1;
                }
                Direction::Reply => {
                    f.bytes_reply += bytes;
                    f.packets_reply += 1;
                }
            }
        }
    }

    /// Handle a conntrack `DESTROY` event; emits the completed record.
    /// Returns `false` for unknown keys.
    pub fn on_destroy(&mut self, key: &FlowKey, ts: Timestamp) -> bool {
        match self.active.remove(key) {
            Some(f) => {
                self.completed.push(FlowRecord {
                    key: *key,
                    start: f.start,
                    end: ts.max(f.start),
                    bytes_orig: f.bytes_orig,
                    bytes_reply: f.bytes_reply,
                    packets_orig: f.packets_orig,
                    packets_reply: f.packets_reply,
                    scope: f.scope,
                });
                true
            }
            None => false,
        }
    }

    /// Evict flows idle since before `cutoff` (conntrack timeout). The
    /// records end at their last activity.
    ///
    /// Eviction order is deterministic: victims are emitted by
    /// (last activity, flow start, key), never in `HashMap` iteration
    /// order — two identically-fed tables drain identical record
    /// sequences, which the streaming pipeline's reproducibility
    /// guarantees rely on.
    pub fn evict_idle(&mut self, cutoff: Timestamp) -> usize {
        let mut idle: Vec<(Timestamp, Timestamp, FlowKey)> = self
            .active
            .iter() // tidy:allow(nondeterministic-iteration): candidates are fully sorted by (last_seen, start, key) before eviction
            .filter(|(_, f)| f.last_seen < cutoff)
            .map(|(k, f)| (f.last_seen, f.start, *k))
            .collect();
        idle.sort_unstable();
        let n = idle.len();
        for (_, _, key) in idle {
            let f = self.active.remove(&key).expect("listed above");
            self.completed.push(FlowRecord {
                key,
                start: f.start,
                end: f.last_seen,
                bytes_orig: f.bytes_orig,
                bytes_reply: f.bytes_reply,
                packets_orig: f.packets_orig,
                packets_reply: f.packets_reply,
                scope: f.scope,
            });
        }
        n
    }

    /// Drain completed flow records.
    pub fn drain(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.completed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::Proto;

    fn key(port: u16) -> FlowKey {
        FlowKey::tcp(
            "192.168.1.10".parse().unwrap(),
            port,
            "203.0.113.1".parse().unwrap(),
            443,
        )
    }

    #[test]
    fn lifecycle_new_packets_destroy() {
        let mut t = FlowTable::new();
        t.on_new(key(1000), 100, Scope::External);
        assert_eq!(t.active_count(), 1);
        t.on_packet(&key(1000), 150, Direction::Original, 500);
        t.on_packet(&key(1000), 200, Direction::Reply, 1500);
        t.on_packet(&key(1000), 250, Direction::Reply, 1500);
        assert!(t.on_destroy(&key(1000), 300));
        assert_eq!(t.active_count(), 0);
        let recs = t.drain();
        assert_eq!(recs.len(), 1);
        let r = &recs[0];
        assert_eq!(r.start, 100);
        assert_eq!(r.end, 300);
        assert_eq!(r.bytes_orig, 500);
        assert_eq!(r.bytes_reply, 3000);
        assert_eq!(r.packets_orig, 1);
        assert_eq!(r.packets_reply, 2);
        assert_eq!(r.key.proto, Proto::Tcp);
    }

    #[test]
    fn destroy_unknown_is_false() {
        let mut t = FlowTable::new();
        assert!(!t.on_destroy(&key(1), 10));
    }

    #[test]
    fn duplicate_new_ignored() {
        let mut t = FlowTable::new();
        t.on_new(key(1), 100, Scope::External);
        t.on_packet(&key(1), 110, Direction::Original, 10);
        t.on_new(key(1), 200, Scope::External); // must not reset
        t.on_destroy(&key(1), 300);
        let r = &t.drain()[0];
        assert_eq!(r.start, 100);
        assert_eq!(r.bytes_orig, 10);
    }

    #[test]
    fn packets_to_unknown_key_dropped() {
        let mut t = FlowTable::new();
        t.on_packet(&key(9), 10, Direction::Original, 10);
        assert_eq!(t.active_count(), 0);
        assert_eq!(t.completed_count(), 0);
    }

    #[test]
    fn idle_eviction() {
        let mut t = FlowTable::new();
        t.on_new(key(1), 100, Scope::External);
        t.on_new(key(2), 100, Scope::External);
        t.on_packet(&key(2), 5_000, Direction::Original, 10);
        // key(1) idle since 100, key(2) active at 5000.
        assert_eq!(t.evict_idle(1_000), 1);
        assert_eq!(t.active_count(), 1);
        let recs = t.drain();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].end, 100);
    }

    #[test]
    fn eviction_order_is_deterministic() {
        // Two separately-constructed tables have differently-seeded
        // HashMaps; identical event feeds must still drain identical
        // record sequences (regression: eviction used to emit in map
        // iteration order).
        let feed = |t: &mut FlowTable| {
            for i in 0..200u16 {
                t.on_new(key(1000 + i), 50 + (i % 7) as u64, Scope::External);
                t.on_packet(
                    &key(1000 + i),
                    60 + (i % 13) as u64,
                    Direction::Original,
                    10 + i as u64,
                );
            }
            t.evict_idle(1_000);
        };
        let mut a = FlowTable::new();
        let mut b = FlowTable::new();
        feed(&mut a);
        feed(&mut b);
        let (ra, rb) = (a.drain(), b.drain());
        assert_eq!(ra.len(), 200);
        assert_eq!(ra, rb, "identically-fed tables must drain identically");
        // And the order is (last_seen, start, key)-sorted.
        let mut sorted = ra.clone();
        sorted.sort_by_key(|r| (r.end, r.start, r.key));
        assert_eq!(ra, sorted);
    }

    #[test]
    fn distinct_keys_tracked_separately() {
        let mut t = FlowTable::new();
        t.on_new(key(1), 0, Scope::External);
        t.on_new(key(2), 0, Scope::External);
        t.on_packet(&key(1), 1, Direction::Original, 100);
        t.on_packet(&key(2), 1, Direction::Original, 900);
        t.on_destroy(&key(1), 10);
        t.on_destroy(&key(2), 10);
        let mut recs = t.drain();
        recs.sort_by_key(|r| r.bytes_orig);
        assert_eq!(recs[0].bytes_orig, 100);
        assert_eq!(recs[1].bytes_orig, 900);
    }
}
