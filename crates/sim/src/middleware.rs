//! The middleware server: collects readings, smooths them, and exports the
//! localization data model.

use crate::reader::ReaderId;
use crate::smoothing::{Filter, SmoothingKind};
use crate::tag::TagId;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use vire_core::{ReferenceRssiMap, TrackingReading};
use vire_geom::{GridData, GridIndex, Point2, RegularGrid};

/// One raw reading as reported by a reader.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Simulation time of the beacon, seconds.
    pub time: f64,
    /// The beaconing tag.
    pub tag: TagId,
    /// The reporting reader.
    pub reader: ReaderId,
    /// Raw RSSI, dBm.
    pub rssi: f64,
}

/// Default raw-log retention when logging is enabled: enough for hours of
/// the paper testbed (16 reference + tens of tracking tags × 4 readers at
/// 2 s beacons ≈ 100 readings/s) without unbounded growth.
pub const DEFAULT_LOG_CAPACITY: usize = 262_144;

/// What [`Middleware::ingest`] did with one reading.
#[derive(Debug, Clone, PartialEq)]
pub enum Smoothed {
    /// Stored; the stream's smoothed value bit-changed.
    Changed,
    /// Stored; the smoothed value is bit-identical to before.
    Unchanged,
    /// The first reading of a newer generation of the slot: the older
    /// lifetime `dead` lost its streams, the slot's filters were reset in
    /// place for the new one, and the reading was stored. Always a
    /// change.
    TookOver {
        /// The lifetime that owned the slot until now.
        dead: TagId,
        /// `dead`'s final reading vector, when every reader had heard it.
        last: Option<TrackingReading>,
    },
    /// Rejected: the reading is from an older generation than the one
    /// owning its slot (a straggler from a dead lifetime).
    Stale,
    /// Rejected: the reader id is outside the table's readers.
    UnknownReader,
}

/// One tag slot's smoothing streams: the lifetime that owns the slot and
/// one filter per reader, indexed by [`ReaderId`].
#[derive(Debug)]
struct SlotStreams {
    generation: u32,
    filters: Box<[Filter]>,
}

/// The middleware: a smoothed RSSI table keyed by (tag, reader), plus an
/// optional raw log for diagnostics.
///
/// The table is slot-major: one entry per tag slot, owned by the newest
/// generation heard on it, holding one filter per reader. The first
/// reading of a newer lifetime takes the slot over and resets its filters
/// in place; readings from older lifetimes are rejected. So the table
/// holds at most one entry per slot ever heard, however many lifetimes
/// pass through, and every stored value is a function of the owning
/// lifetime's own readings.
///
/// The log is a bounded ring: when it reaches its configured capacity the
/// **oldest reading is evicted** for each new one, so memory stays flat no
/// matter how long the simulation runs. [`Middleware::log_evicted`] counts
/// what was dropped. Rejected readings are not logged.
#[derive(Debug)]
pub struct Middleware {
    smoothing: SmoothingKind,
    /// Readers per slot: valid reader ids are `0..readers`.
    readers: usize,
    slots: HashMap<u32, SlotStreams>,
    log: VecDeque<Reading>,
    /// Maximum retained readings; 0 disables logging entirely.
    log_capacity: usize,
    /// Readings evicted from the front of the full ring.
    log_evicted: u64,
}

impl Middleware {
    /// Creates a middleware for `readers` readers (ids `0..readers`) with
    /// the given smoothing policy. `keep_log` retains raw readings up to
    /// [`DEFAULT_LOG_CAPACITY`] (oldest evicted first); see
    /// [`Middleware::with_log_capacity`] to size the ring.
    pub fn new(smoothing: SmoothingKind, readers: usize, keep_log: bool) -> Self {
        let log_capacity = if keep_log { DEFAULT_LOG_CAPACITY } else { 0 };
        Middleware::with_log_capacity(smoothing, readers, log_capacity)
    }

    /// Creates a middleware for `readers` readers retaining at most
    /// `log_capacity` raw readings (0 disables the log). When the ring is
    /// full, each new reading evicts the oldest one.
    pub fn with_log_capacity(
        smoothing: SmoothingKind,
        readers: usize,
        log_capacity: usize,
    ) -> Self {
        Middleware {
            smoothing,
            readers,
            slots: HashMap::new(),
            log: VecDeque::new(),
            log_capacity,
            log_evicted: 0,
        }
    }

    /// Ingests one reading: one table lookup, then the `(tag, reader)`
    /// filter update. See [`Smoothed`] for the outcomes; a `Changed` or
    /// `TookOver` outcome (bit-exact comparison) is the dirty signal the
    /// incremental pipeline stage uses to re-export only touched cells.
    pub fn ingest(&mut self, reading: Reading) -> Smoothed {
        let k = reading.reader.0 as usize;
        if k >= self.readers {
            return Smoothed::UnknownReader;
        }
        let TagId { index, generation } = reading.tag;
        let (slot, took_over) = match self.slots.entry(index) {
            Entry::Occupied(e) => {
                let slot = e.into_mut();
                if generation < slot.generation {
                    return Smoothed::Stale;
                }
                let took_over = (generation > slot.generation).then(|| {
                    let dead = TagId::new(index, slot.generation);
                    let last: Option<Vec<f64>> = slot.filters.iter().map(Filter::value).collect();
                    slot.generation = generation;
                    slot.filters.iter_mut().for_each(Filter::reset);
                    (dead, last.map(TrackingReading::new))
                });
                (slot, took_over)
            }
            Entry::Vacant(e) => (
                e.insert(SlotStreams {
                    generation,
                    filters: (0..self.readers).map(|_| self.smoothing.build()).collect(),
                }),
                None,
            ),
        };
        let filter = &mut slot.filters[k];
        let before = filter.value().map(f64::to_bits);
        filter.update(reading.rssi);
        let changed = filter.value().map(f64::to_bits) != before;
        if self.log_capacity > 0 {
            if self.log.len() == self.log_capacity {
                self.log.pop_front();
                self.log_evicted += 1;
            }
            self.log.push_back(reading);
        }
        match took_over {
            Some((dead, last)) => Smoothed::TookOver { dead, last },
            None if changed => Smoothed::Changed,
            None => Smoothed::Unchanged,
        }
    }

    /// `tag`'s filters, when its lifetime owns its slot.
    fn streams(&self, tag: TagId) -> Option<&[Filter]> {
        self.slots
            .get(&tag.index)
            .filter(|s| s.generation == tag.generation)
            .map(|s| &*s.filters)
    }

    /// Smoothed RSSI for a (tag, reader) pair, if any readings arrived.
    pub fn rssi(&self, tag: TagId, reader: ReaderId) -> Option<f64> {
        self.streams(tag)?.get(reader.0 as usize)?.value()
    }

    /// Drops every smoothing filter of `tag` — the tag despawned and its
    /// smoothed state must not linger. O(1): removes the slot's entry when
    /// `tag`'s lifetime owns it (a stale handle from an earlier lifetime
    /// leaves the current occupant alone). Returns the number of
    /// `(tag, reader)` streams with readings that were dropped; the raw
    /// log ring is left untouched.
    pub fn forget_tag(&mut self, tag: TagId) -> usize {
        match self.slots.entry(tag.index) {
            Entry::Occupied(e) if e.get().generation == tag.generation => {
                e.remove().filters.iter().filter(|f| f.fill() > 0).count()
            }
            _ => 0,
        }
    }

    /// Readers per slot (valid reader ids are `0..reader_count`).
    pub fn reader_count(&self) -> usize {
        self.readers
    }

    /// Number of tag slots holding smoothing streams.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of `(tag, reader)` filters held: one per reader for every
    /// slot in [`Middleware::slot_count`].
    pub fn stream_count(&self) -> usize {
        self.slots.len() * self.readers
    }

    /// Number of readings currently influencing a (tag, reader) estimate.
    pub fn fill(&self, tag: TagId, reader: ReaderId) -> usize {
        self.streams(tag)
            .and_then(|f| f.get(reader.0 as usize))
            .map_or(0, Filter::fill)
    }

    /// The retained raw readings, oldest first (empty unless logging was
    /// enabled). When the ring overflowed, this is the most recent
    /// [`Middleware::log_capacity`] readings only.
    pub fn log_readings(&self) -> impl ExactSizeIterator<Item = &Reading> + '_ {
        self.log.iter()
    }

    /// Number of readings currently retained in the log ring.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Configured log ring capacity (0 = logging disabled).
    pub fn log_capacity(&self) -> usize {
        self.log_capacity
    }

    /// Number of readings evicted from the full log ring so far.
    pub fn log_evicted(&self) -> u64 {
        self.log_evicted
    }

    /// Exports the reference calibration map.
    ///
    /// `reference_tags` maps each lattice node to the tag pinned there;
    /// `readers` must be in dense [`ReaderId`] order. Returns `None` when
    /// any (reference tag, reader) pair has no smoothed value yet — run
    /// the simulation longer.
    pub fn reference_map(
        &self,
        grid: RegularGrid,
        reference_tags: &HashMap<GridIndex, TagId>,
        readers: &[Point2],
    ) -> Option<ReferenceRssiMap> {
        let mut fields = Vec::with_capacity(readers.len());
        for (k, _) in readers.iter().enumerate() {
            let reader = ReaderId(k as u32);
            let mut field = GridData::filled(grid, 0.0f64);
            for idx in grid.indices() {
                let tag = *reference_tags.get(&idx)?;
                let value = self.rssi(tag, reader)?;
                field.set(idx, value);
            }
            fields.push(field);
        }
        Some(ReferenceRssiMap::new(grid, readers.to_vec(), fields))
    }

    /// Exports one tracking tag's reading vector across `reader_count`
    /// readers, or `None` when readings are missing.
    pub fn tracking_reading(&self, tag: TagId, reader_count: usize) -> Option<TrackingReading> {
        let rssi: Option<Vec<f64>> = self
            .streams(tag)?
            .get(..reader_count)?
            .iter()
            .map(Filter::value)
            .collect();
        Some(TrackingReading::new(rssi?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(tag: u32, reader: u32, rssi: f64) -> Reading {
        Reading {
            time: 0.0,
            tag: TagId::first(tag),
            reader: ReaderId(reader),
            rssi,
        }
    }

    #[test]
    fn ingest_and_query() {
        let mut mw = Middleware::new(SmoothingKind::MovingAverage(2), 2, false);
        mw.ingest(reading(1, 0, -70.0));
        mw.ingest(reading(1, 0, -72.0));
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(0)), Some(-71.0));
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(1)), None);
        assert_eq!(mw.fill(TagId::first(1), ReaderId(0)), 2);
        assert_eq!(mw.fill(TagId::first(9), ReaderId(0)), 0);
    }

    #[test]
    fn log_is_kept_only_when_requested() {
        let mut quiet = Middleware::new(SmoothingKind::Raw, 2, false);
        quiet.ingest(reading(1, 0, -70.0));
        assert_eq!(quiet.log_len(), 0);
        assert_eq!(quiet.log_capacity(), 0);

        let mut chatty = Middleware::new(SmoothingKind::Raw, 2, true);
        chatty.ingest(reading(1, 0, -70.0));
        chatty.ingest(reading(2, 1, -80.0));
        assert_eq!(chatty.log_len(), 2);
        assert_eq!(chatty.log_readings().nth(1).unwrap().tag, TagId::first(2));
        assert_eq!(chatty.log_capacity(), DEFAULT_LOG_CAPACITY);
    }

    #[test]
    fn full_log_ring_evicts_oldest_first() {
        let mut mw = Middleware::with_log_capacity(SmoothingKind::Raw, 1, 3);
        for n in 0..5u32 {
            mw.ingest(reading(n, 0, -70.0 - n as f64));
        }
        // Capacity 3: readings from tags 0 and 1 were evicted.
        assert_eq!(mw.log_len(), 3);
        assert_eq!(mw.log_evicted(), 2);
        let tags: Vec<u32> = mw.log_readings().map(|r| r.tag.index).collect();
        assert_eq!(tags, vec![2, 3, 4], "oldest evicted, order preserved");
        // The smoothed table is unaffected by log eviction.
        assert_eq!(mw.rssi(TagId::first(0), ReaderId(0)), Some(-70.0));
    }

    #[test]
    fn ingest_reports_smoothed_value_changes() {
        let mut mw = Middleware::new(SmoothingKind::MovingAverage(2), 2, false);
        assert_eq!(
            mw.ingest(reading(1, 0, -70.0)),
            Smoothed::Changed,
            "first value is a change"
        );
        assert_eq!(
            mw.ingest(reading(1, 0, -70.0)),
            Smoothed::Unchanged,
            "mean unchanged"
        );
        assert_eq!(
            mw.ingest(reading(1, 0, -90.0)),
            Smoothed::Changed,
            "mean moves to -80"
        );
        // Another stream is independent.
        assert_eq!(mw.ingest(reading(1, 1, -55.0)), Smoothed::Changed);
        // A median window absorbing a spike reports no change.
        let mut med = Middleware::new(SmoothingKind::Median(3), 1, false);
        med.ingest(reading(2, 0, -70.0));
        med.ingest(reading(2, 0, -70.0));
        assert_eq!(
            med.ingest(reading(2, 0, -95.0)),
            Smoothed::Unchanged,
            "median rejects the spike"
        );
    }

    #[test]
    fn forget_tag_drops_all_its_streams_and_only_its_streams() {
        let mut mw = Middleware::new(SmoothingKind::Raw, 2, true);
        mw.ingest(reading(1, 0, -70.0));
        mw.ingest(reading(1, 1, -71.0));
        mw.ingest(reading(2, 0, -80.0));
        assert_eq!(mw.forget_tag(TagId::first(1)), 2);
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(0)), None);
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(1)), None);
        assert_eq!(mw.rssi(TagId::first(2), ReaderId(0)), Some(-80.0));
        assert_eq!(mw.forget_tag(TagId::first(1)), 0, "idempotent");
        // A later lifetime of the same slot starts from a clean filter and
        // is not dropped by a (stale) repeat of the old removal.
        let reborn = Reading {
            tag: TagId::new(1, 1),
            ..reading(1, 0, -60.0)
        };
        mw.ingest(reborn);
        assert_eq!(mw.forget_tag(TagId::first(1)), 0);
        assert_eq!(mw.rssi(TagId::new(1, 1), ReaderId(0)), Some(-60.0));
        // The raw log is left untouched by forgetting.
        assert_eq!(mw.log_len(), 4);
    }

    #[test]
    fn reference_map_requires_full_coverage() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let readers = vec![Point2::new(-1.0, -1.0)];
        let mut tags = HashMap::new();
        let mut mw = Middleware::new(SmoothingKind::Raw, 1, false);
        for (n, idx) in grid.indices().enumerate() {
            tags.insert(idx, TagId::first(n as u32));
        }
        // Missing readings -> None.
        assert!(mw.reference_map(grid, &tags, &readers).is_none());
        // Fill three of four -> still None.
        for n in 0..3u32 {
            mw.ingest(reading(n, 0, -70.0 - n as f64));
        }
        assert!(mw.reference_map(grid, &tags, &readers).is_none());
        // Complete -> Some, with values in the right cells.
        mw.ingest(reading(3, 0, -73.0));
        let map = mw.reference_map(grid, &tags, &readers).unwrap();
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -70.0);
        assert_eq!(map.rssi(0, GridIndex::new(1, 1)), -73.0);
    }

    #[test]
    fn tracking_reading_requires_all_readers() {
        let mut mw = Middleware::new(SmoothingKind::Raw, 2, false);
        mw.ingest(reading(5, 0, -70.0));
        assert!(mw.tracking_reading(TagId::first(5), 2).is_none());
        mw.ingest(reading(5, 1, -75.0));
        let t = mw.tracking_reading(TagId::first(5), 2).unwrap();
        assert_eq!(t.rssi(), &[-70.0, -75.0]);
        // A takeover hands back the dead lifetime's complete final vector.
        assert_eq!(
            mw.ingest(at(TagId::new(5, 1), 0, -60.0)),
            Smoothed::TookOver {
                dead: TagId::first(5),
                last: Some(t)
            }
        );
    }

    fn at(tag: TagId, reader: u32, rssi: f64) -> Reading {
        Reading {
            tag,
            ..reading(0, reader, rssi)
        }
    }

    #[test]
    fn a_straggler_leaves_the_current_lifetime_bit_unchanged() {
        let mut mw = Middleware::new(SmoothingKind::Median(5), 2, true);
        let (old, new) = (TagId::new(3, 0), TagId::new(3, 1));
        mw.ingest(at(old, 0, -70.0));
        assert_eq!(
            mw.ingest(at(new, 0, -80.0)),
            Smoothed::TookOver {
                dead: old,
                last: None
            },
            "the dead lifetime was heard by one reader of two"
        );
        mw.ingest(at(new, 1, -81.0));
        let before = format!("{:?}", mw.slots[&3]);
        for k in 0..2 {
            assert_eq!(mw.ingest(at(old, k, -20.0)), Smoothed::Stale);
        }
        assert_eq!(format!("{:?}", mw.slots[&3]), before, "owner untouched");
        assert_eq!(mw.rssi(new, ReaderId(0)), Some(-80.0));
        assert_eq!(
            mw.rssi(old, ReaderId(0)),
            None,
            "the dead lifetime reads nothing"
        );
        assert_eq!(mw.log_len(), 3, "rejected readings are not logged");
    }

    #[test]
    fn after_a_takeover_the_filters_equal_freshly_built_ones() {
        for kind in [
            SmoothingKind::Raw,
            SmoothingKind::MovingAverage(3),
            SmoothingKind::Ewma(0.4),
            SmoothingKind::Median(5),
        ] {
            let mut mw = Middleware::new(kind, 3, false);
            for x in [-70.0, -72.5, -90.0, -71.0, -69.5, -75.0] {
                mw.ingest(at(TagId::new(7, 2), 0, x));
                mw.ingest(at(TagId::new(7, 2), 2, x - 3.0));
            }
            // A jump of several generations is one takeover; reader 1
            // never heard the dead lifetime.
            let new = TagId::new(7, 5);
            let dead = TagId::new(7, 2);
            let smoothed = mw.ingest(at(new, 1, -64.0));
            assert_eq!(smoothed, Smoothed::TookOver { dead, last: None });
            let mut fresh = Middleware::new(kind, 3, false);
            fresh.ingest(at(new, 1, -64.0));
            let (taken, built) = (&mw.slots[&7], &fresh.slots[&7]);
            assert_eq!(taken.generation, 5);
            assert_eq!(taken.filters, built.filters, "{kind:?}");
            assert_eq!(mw.slot_count(), 1, "the slot's entry was reused");
        }
    }

    #[test]
    fn unknown_readers_are_rejected_and_store_nothing() {
        let mut mw = Middleware::new(SmoothingKind::Raw, 2, false);
        assert_eq!(mw.ingest(reading(1, 2, -70.0)), Smoothed::UnknownReader);
        assert_eq!(
            mw.ingest(reading(1, u32::MAX, -70.0)),
            Smoothed::UnknownReader
        );
        assert_eq!(mw.slot_count(), 0);
        assert_eq!(mw.rssi(TagId::first(1), ReaderId(2)), None);
        mw.ingest(reading(1, 1, -70.0));
        assert_eq!((mw.slot_count(), mw.stream_count()), (1, 2));
    }
}
