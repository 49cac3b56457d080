//! A deterministic priority queue over a simulated clock.
//!
//! The runtime does not use it: [`super::Runtime::run`] plays trace frames
//! in a plain loop. The queue stays only because the stand-alone
//! `lbchat_e2e` benchmark probes it directly (`runtime.sched_push_pop_ns`).
//!
//! Entries are ordered by `(time, insertion sequence)` — ties at the same
//! simulated time pop in the order they were pushed, never by pointer,
//! hash, or payload.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled entry: reverse-ordered so the `BinaryHeap` max-heap pops the
/// earliest time first and, within a time, the lowest sequence number.
/// Times are never NaN ([`EventQueue::push`] rejects it), so
/// [`f64::total_cmp`] orders them as `<` does.
#[derive(Debug)]
struct Entry<E> {
    time: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        // Reversed on both keys: earliest time wins, then earliest insertion.
        other.time.total_cmp(&self.time).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event queue over a simulated clock.
///
/// `pop` returns events in nondecreasing time order; events pushed at the
/// same time come back in push order. The clock never runs backwards:
/// pushing before the last popped time is clamped to the current time.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: f64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0, now: 0.0 }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `event` at absolute time `time`. Times in the past are
    /// clamped to the current clock; NaN is rejected.
    ///
    /// # Panics
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let time = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time;
        Some((entry.time, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, "c");
        q.push(1.0, "a");
        q.push(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_pops_in_insertion_order() {
        let mut q = EventQueue::new();
        for k in 0..100 {
            q.push(5.0, k);
        }
        for k in 0..100 {
            assert_eq!(q.pop(), Some((5.0, k)));
        }
    }

    #[test]
    fn interleaved_pushes_keep_insertion_order_within_a_time() {
        let mut q = EventQueue::new();
        q.push(2.0, "x1");
        q.push(1.0, "y1");
        q.push(2.0, "x2");
        q.push(1.0, "y2");
        assert_eq!(q.pop(), Some((1.0, "y1")));
        assert_eq!(q.pop(), Some((1.0, "y2")));
        assert_eq!(q.pop(), Some((2.0, "x1")));
        assert_eq!(q.pop(), Some((2.0, "x2")));
    }

    #[test]
    fn clock_advances_and_clamps_past_pushes() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.push(10.0, "late");
        assert_eq!(q.now(), 0.0, "pushing does not advance the clock");
        assert_eq!(q.pop(), Some((10.0, "late")));
        assert_eq!(q.now(), 10.0);
        // Scheduling in the past lands "now", after already-queued
        // same-time events.
        q.push(10.0, "now1");
        q.push(3.0, "past");
        assert_eq!(q.pop(), Some((10.0, "now1")));
        assert_eq!(q.pop(), Some((10.0, "past")));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_times_are_rejected()
    {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }
}
