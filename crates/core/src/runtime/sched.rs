//! The discrete-event scheduler core: a simulated clock and a deterministic
//! priority queue.
//!
//! Events are ordered by `(time, insertion sequence)` — ties at the same
//! simulated time pop in the order they were pushed, never by pointer,
//! hash, or payload. That guarantee is what lets the event-driven runtime
//! reproduce the frame loop it replaced bit for bit (the frame loop's phases
//! become same-timestamp events pushed in phase order: each session its own
//! `ContactOpen`, then one `Train` for the whole fleet's training slices,
//! then `Eval`) and keeps every run independent of allocator or thread
//! scheduling.

use simnet::contact::ContactEstimate;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Event kinds of the runtime's discrete-event loop.
///
/// Same-timestamp events pop in push order, so the frame handler pushing
/// `ContactOpen`s, then one `Train`, then `Eval` at its own timestamp
/// reproduces the frame loop's phase order exactly.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A mobility-trace frame: infrastructure hook, pair matching, and
    /// scheduling of the frame's sessions, training, and evaluation.
    Frame,
    /// A matched pair opens a session.
    ContactOpen {
        /// First endpoint.
        i: usize,
        /// Second endpoint.
        j: usize,
        /// Contact estimate computed from shared routes at match time.
        est: ContactEstimate,
        /// Matching priority the pair won with.
        priority: f64,
    },
    /// The frame's local-training slices, every node in id order. One event
    /// for the fleet: nothing a slice does pushes an event, so n events in
    /// a row at one timestamp would pop back to back anyway.
    Train,
    /// A periodic loss-curve evaluation.
    Eval,
}

/// A simulated timestamp with a total order.
///
/// Wraps `f64` and orders by [`f64::total_cmp`]; the queue rejects NaN at
/// push time so the total order never surprises (NaN sorts above +inf under
/// `total_cmp`, which would silently starve an event).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedTime(pub f64);

impl Eq for OrderedTime {}

impl PartialOrd for OrderedTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Monotone insertion sequence number breaking same-time ties.
pub type EventSeq = u64;

/// A scheduled entry: reverse-ordered so the `BinaryHeap` max-heap pops the
/// earliest time first and, within a time, the lowest sequence number.
#[derive(Debug)]
struct Entry<E> {
    time: OrderedTime,
    seq: EventSeq,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event queue over a simulated clock.
///
/// `pop` returns events in nondecreasing time order; events pushed at the
/// same time come back in push order. The clock never runs backwards:
/// pushing before the last popped time is clamped to the current time (a
/// handler scheduling "now" during its own timestamp is fine and common).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: EventSeq,
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

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `time`. Times in the past are
    /// clamped to the current clock; NaN is rejected.
    ///
    /// # Panics
    /// Panics if `time` is NaN.
    pub fn push(&mut self, time: f64, event: E) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let t = time.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time: OrderedTime(t), seq, event });
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.time.0;
        Some((entry.time.0, entry.event))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time.0)
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
        q.push(10.0, "late");
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
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(4.0, ());
        assert_eq!(q.peek_time(), Some(4.0));
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_times_are_rejected()
    {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }
}
