//! # vire-bus
//!
//! A fixed-capacity, single-writer / multi-reader ring-buffer event
//! channel — the transport of the simulated testbed's reading stream.
//!
//! The paper's testbed is inherently streaming: tags beacon every ~2 s and
//! the middleware and location server consume an unsynchronized event
//! stream (§4.1). [`EventBus`] models that stream in memory:
//!
//! * **Single writer** — the simulation engine publishes events with
//!   [`EventBus::publish`]; exclusive access is enforced by `&mut`.
//! * **Multiple independent readers** — each consumer registers a
//!   [`ReaderToken`] cursor with [`EventBus::reader`] and drains newly
//!   published events with [`EventBus::read`]. Readers never block the
//!   writer or each other.
//! * **Explicit loss, never silent** — once the ring is full each publish
//!   overwrites the oldest event; a reader that fell behind learns exactly
//!   how many events it lost from [`BusRead::lagged`], in the style of
//!   `shrev`'s ring-buffer `EventChannel`.
//!
//! Sequence numbers are monotonically increasing `u64`s, so the channel
//! never ambiguates wraparound (at one event per nanosecond a `u64` lasts
//! ~580 years).
//!
//! ```
//! use vire_bus::EventBus;
//!
//! let mut bus = EventBus::with_capacity(4);
//! let mut fast = bus.reader();
//! let mut slow = bus.reader();
//! for n in 0..3 {
//!     bus.publish(n);
//! }
//! assert_eq!(bus.read(&mut fast).copied().collect::<Vec<i32>>(), [0, 1, 2]);
//! for n in 3..8 {
//!     bus.publish(n); // overwrites 0..4 for the slow reader
//! }
//! let read = bus.read(&mut slow);
//! assert_eq!(read.lagged(), 4, "events 0–3 were overwritten");
//! assert_eq!(read.copied().collect::<Vec<i32>>(), [4, 5, 6, 7]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of unique bus identities; catches tokens used on the wrong bus.
static NEXT_BUS_ID: AtomicU64 = AtomicU64::new(0);

/// Constructor failure for [`EventBus`].
///
/// The panicking constructor [`EventBus::with_capacity`] is a thin wrapper
/// that panics with this error's [`Display`](fmt::Display) message;
/// callers that build buses from untrusted configuration use
/// [`EventBus::try_with_capacity`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusError {
    /// The requested ring capacity was zero.
    ZeroCapacity,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::ZeroCapacity => write!(f, "bus capacity must be positive"),
        }
    }
}

impl std::error::Error for BusError {}

/// A single-writer / multi-reader event channel over a ring buffer.
///
/// See the [crate docs](crate) for semantics. `T: Clone` is *not*
/// required: readers borrow events in place.
#[derive(Debug)]
pub struct EventBus<T> {
    /// Ring storage; grows to `cap` entries, then is overwritten in place.
    buf: Vec<T>,
    /// Ring capacity.
    cap: usize,
    /// Sequence number of the *next* event to be published (== total
    /// events ever published). The event with sequence number `s` lives
    /// at `buf[s % cap]` while retained.
    head: u64,
    id: u64,
}

/// An independent read cursor into one [`EventBus`].
///
/// Each consumer owns one; a token only observes events published *after*
/// it was created.
#[derive(Debug, PartialEq, Eq)]
pub struct ReaderToken {
    /// Sequence number of the next event this reader will receive.
    next: u64,
    bus_id: u64,
}

/// The result of one [`EventBus::read`]: the loss counter plus an
/// iterator over the surviving unread events, oldest first.
#[derive(Debug)]
pub struct BusRead<'a, T> {
    bus: &'a EventBus<T>,
    next: u64,
    end: u64,
    lagged: u64,
}

impl<T> EventBus<T> {
    /// Creates a bus retaining at most `capacity` events: once full, the
    /// oldest event is overwritten and the loss surfaces as
    /// [`BusRead::lagged`].
    ///
    /// # Panics
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::try_with_capacity(capacity).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`EventBus::with_capacity`].
    pub fn try_with_capacity(capacity: usize) -> Result<Self, BusError> {
        if capacity == 0 {
            return Err(BusError::ZeroCapacity);
        }
        Ok(EventBus {
            buf: Vec::with_capacity(capacity),
            cap: capacity,
            head: 0,
            id: NEXT_BUS_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no event was ever published.
    pub fn is_empty(&self) -> bool {
        self.head == 0
    }

    /// Total number of events ever published.
    pub fn total_published(&self) -> u64 {
        self.head
    }

    /// Sequence number of the oldest event still retained.
    fn oldest(&self) -> u64 {
        self.head - self.buf.len() as u64
    }

    /// Publishes one event, overwriting the oldest once the ring is full.
    pub fn publish(&mut self, event: T) {
        if self.buf.len() < self.cap {
            self.buf.push(event);
        } else {
            self.buf[(self.head % self.cap as u64) as usize] = event;
        }
        self.head += 1;
    }

    /// Publishes every event of an iterator in order.
    pub fn publish_all(&mut self, events: impl IntoIterator<Item = T>) {
        for e in events {
            self.publish(e);
        }
    }

    /// Registers a new reader cursor positioned at the current head: it
    /// will observe only events published after this call.
    pub fn reader(&self) -> ReaderToken {
        ReaderToken {
            next: self.head,
            bus_id: self.id,
        }
    }

    /// Drains every event published since `token` last read, advancing the
    /// token to the head.
    ///
    /// When the reader fell behind the ring, the overwritten events are
    /// unrecoverable; [`BusRead::lagged`] reports exactly how many were
    /// lost and iteration yields the survivors.
    ///
    /// # Panics
    /// Panics when `token` belongs to a different bus.
    pub fn read(&self, token: &mut ReaderToken) -> BusRead<'_, T> {
        self.check(token);
        let oldest = self.oldest();
        let pos = token.next;
        token.next = self.head;
        BusRead {
            bus: self,
            next: pos.max(oldest),
            end: self.head,
            lagged: oldest.saturating_sub(pos),
        }
    }

    /// Number of events `token` would receive from [`EventBus::read`]
    /// (survivors only), without consuming them.
    pub fn pending(&self, token: &ReaderToken) -> usize {
        self.check(token);
        (self.head - token.next.max(self.oldest())) as usize
    }

    fn check(&self, token: &ReaderToken) {
        assert_eq!(
            token.bus_id, self.id,
            "reader token belongs to a different bus"
        );
    }
}

impl<T> BusRead<'_, T> {
    /// Number of events that were overwritten before this read and are
    /// permanently lost to this reader (0 when the reader kept up).
    pub fn lagged(&self) -> u64 {
        self.lagged
    }
}

impl<'a, T> Iterator for BusRead<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        if self.next == self.end {
            return None;
        }
        let item = &self.bus.buf[(self.next % self.bus.cap as u64) as usize];
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.end - self.next) as usize;
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for BusRead<'_, T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_published_events_in_order() {
        let mut bus = EventBus::with_capacity(8);
        let mut r = bus.reader();
        bus.publish_all([10, 20, 30]);
        let read = bus.read(&mut r);
        assert_eq!(read.lagged(), 0);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [10, 20, 30]);
        // A second read yields nothing new.
        assert_eq!(bus.read(&mut r).count(), 0);
    }

    #[test]
    fn readers_are_independent() {
        let mut bus = EventBus::with_capacity(8);
        let mut a = bus.reader();
        bus.publish(1);
        let mut b = bus.reader(); // registered later: misses event 1
        bus.publish(2);
        assert_eq!(bus.read(&mut a).copied().collect::<Vec<i32>>(), [1, 2]);
        assert_eq!(bus.read(&mut b).copied().collect::<Vec<i32>>(), [2]);
        // Draining a did not affect b and vice versa.
        bus.publish(3);
        assert_eq!(bus.read(&mut b).copied().collect::<Vec<i32>>(), [3]);
        assert_eq!(bus.read(&mut a).copied().collect::<Vec<i32>>(), [3]);
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut bus = EventBus::with_capacity(4);
        let mut r = bus.reader();
        for round in 0..10 {
            bus.publish_all([4 * round, 4 * round + 1, 4 * round + 2, 4 * round + 3]);
            let got: Vec<i32> = bus.read(&mut r).copied().collect();
            assert_eq!(got, (4 * round..4 * round + 4).collect::<Vec<i32>>());
        }
        assert_eq!(bus.len(), 4);
        assert_eq!(bus.total_published(), 40);
    }

    #[test]
    fn slow_reader_observes_explicit_lag() {
        let mut bus = EventBus::with_capacity(3);
        let mut slow = bus.reader();
        bus.publish_all(0..7); // capacity 3: events 0–3 are gone
        let read = bus.read(&mut slow);
        assert_eq!(read.lagged(), 4);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [4, 5, 6]);
        // Once caught up the lag clears.
        bus.publish(7);
        let read = bus.read(&mut slow);
        assert_eq!(read.lagged(), 0);
        assert_eq!(read.copied().collect::<Vec<i32>>(), [7]);
    }

    #[test]
    fn reader_registered_after_publishes_sees_nothing_old() {
        let mut bus = EventBus::with_capacity(4);
        bus.publish_all(0..3);
        let mut r = bus.reader();
        let read = bus.read(&mut r);
        assert_eq!(read.lagged(), 0);
        assert_eq!(read.count(), 0);
    }

    #[test]
    fn pending_counts_without_consuming() {
        let mut bus = EventBus::with_capacity(4);
        let mut r = bus.reader();
        bus.publish_all(0..2);
        assert_eq!(bus.pending(&r), 2);
        assert_eq!(bus.pending(&r), 2, "pending must not consume");
        bus.read(&mut r).for_each(drop);
        assert_eq!(bus.pending(&r), 0);
    }

    #[test]
    fn exact_size_iterator() {
        let mut bus = EventBus::with_capacity(8);
        let mut r = bus.reader();
        bus.publish_all(0..5);
        let read = bus.read(&mut r);
        assert_eq!(read.len(), 5);
    }

    #[test]
    #[should_panic(expected = "different bus")]
    fn token_from_another_bus_panics() {
        let a: EventBus<i32> = EventBus::with_capacity(2);
        let b: EventBus<i32> = EventBus::with_capacity(2);
        let mut t = a.reader();
        let _ = b.read(&mut t);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: EventBus<i32> = EventBus::with_capacity(0);
    }

    #[test]
    fn try_constructor_reports_bad_shapes() {
        assert_eq!(
            EventBus::<i32>::try_with_capacity(0).unwrap_err(),
            BusError::ZeroCapacity
        );
        assert!(EventBus::<i32>::try_with_capacity(4).is_ok());
    }
}
