//! A generic discrete-event queue with a virtual clock.

use crate::Time;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first ordering.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// An ordered queue of future events driving a virtual clock.
///
/// Events fire in timestamp order; equal timestamps fire in insertion order,
/// which keeps every simulation fully deterministic.
///
/// ```
/// use netsim::EventQueue;
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.schedule_at(20, "world");
/// q.schedule_at(10, "hello");
/// assert_eq!(q.pop(), Some((10, "hello")));
/// assert_eq!(q.now(), 10);
/// assert_eq!(q.pop(), Some((20, "world")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Time,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> EventQueue<E> {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` lies in the past (before `now`): time travel in a
    /// simulation is always a bug.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({at} < {})",
            self.now
        );
        self.heap.push(Entry {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedule `event` `delay` microseconds from now.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.event))
    }

    /// Drain and drop all pending events (keeps the clock).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.schedule_at(5, 1);
        q.schedule_at(5, 2);
        q.schedule_at(3, 0);
        assert_eq!(q.pop(), Some((3, 0)));
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_at(10, ());
        q.schedule_in(25, ()); // relative to now=0 → at 25
        let mut last = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
        assert_eq!(q.now(), 25);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule_at(100, 1);
        q.pop();
        q.schedule_in(50, 2);
        assert_eq!(q.pop(), Some((150, 2)));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn rejects_past_events() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule_at(100, 1);
        q.pop();
        q.schedule_at(50, 2);
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.schedule_at(7, 1);
        q.pop();
        q.schedule_at(100, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), 7);
    }
}
