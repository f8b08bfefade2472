//! The middleware pipeline stage: the per-key smoothing table plus
//! incremental dirty tracking.
//!
//! Every reading enters through [`MiddlewareStage::ingest`], which applies
//! the `(tag, reader)` smoothing filter and records exactly which cells
//! changed, so downstream exports touch only dirty state. The serving
//! path ([`crate::IngestServer`]) calls it once per accepted reading; the
//! simulated testbed publishes its readings to a [`vire_bus::EventBus`]
//! and [`MiddlewareStage::pump`]s them through the same `ingest`.
//!
//! The stage enforces slot ownership: the newest generation heard on a
//! tag slot owns its smoothing streams, a pinned reference slot answers
//! only to its pinned generation, and everything else is rejected and
//! counted ([`SlotStats`]) before it can touch a filter.
//!
//! * [`MiddlewareStage::reference_map`] refreshes the cached calibration
//!   map in place, rewriting only the cells whose smoothed value moved,
//! * [`MiddlewareStage::changed_readings`] drains only the tracking tags
//!   whose reading vector changed since the last drain,
//! * [`MiddlewareStage::take_dirty_cells`] drains the calibration cells
//!   whose cached-map value bit-changed, feeding the service's
//!   incremental prepared-state patching
//!   ([`vire_core::incremental`]).
//!
//! The stage implements [`vire_core::SnapshotSource`], so
//! [`vire_core::LocationService::drive`] can poll it incrementally —
//! localizing nothing when the deployment is quiet.

use crate::middleware::{Middleware, Reading, Smoothed};
use crate::reader::ReaderId;
use crate::tag::TagId;
use std::collections::{HashMap, HashSet};
use vire_bus::{EventBus, ReaderToken};
use vire_core::{DirtyCell, ReferenceRssiMap, SnapshotSource, TrackingReading};
use vire_geom::{GridIndex, Point2, RegularGrid};

/// What one [`MiddlewareStage::pump`] call consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PumpStats {
    /// Events ingested from the bus.
    pub events: usize,
    /// Events whose smoothed `(tag, reader)` value changed.
    pub changed: usize,
    /// Events lost to ring overwriting before this pump (the stage fell
    /// more than the bus capacity behind).
    pub lagged: u64,
}

/// Slot-ownership accounting of a [`MiddlewareStage`]: takeovers of a tag
/// slot by a newer lifetime, and readings rejected before they reached a
/// filter, by reason. Rejected readings are never stored, never dirty
/// anything and never advance the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SlotStats {
    /// First readings of a newer generation that took a slot over from
    /// an older lifetime (whose streams were dropped).
    pub takeovers: u64,
    /// Rejected: from an older generation than the slot's owner.
    pub stale_generation: u64,
    /// Rejected: named a pinned reference slot at a generation other
    /// than the pinned one.
    pub reference_generation: u64,
    /// Rejected: from a reader id outside the deployment's readers.
    pub unknown_reader: u64,
}

impl SlotStats {
    /// Readings rejected for any reason.
    pub fn rejected(&self) -> u64 {
        self.stale_generation + self.reference_generation + self.unknown_reader
    }
}

impl std::ops::Add for SlotStats {
    type Output = SlotStats;

    fn add(self, o: SlotStats) -> SlotStats {
        SlotStats {
            takeovers: self.takeovers + o.takeovers,
            stale_generation: self.stale_generation + o.stale_generation,
            reference_generation: self.reference_generation + o.reference_generation,
            unknown_reader: self.unknown_reader + o.unknown_reader,
        }
    }
}

impl std::fmt::Display for SlotStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "takeovers {}, rejected {} (stale generation {}, reference generation {}, \
             unknown reader {})",
            self.takeovers,
            self.rejected(),
            self.stale_generation,
            self.reference_generation,
            self.unknown_reader
        )
    }
}

/// A middleware smoothing [`Reading`]s one at a time, with incremental
/// dirty-cell tracking. See the [module docs](self).
#[derive(Debug)]
pub struct MiddlewareStage {
    middleware: Middleware,
    /// Timestamp of the newest ingested reading.
    clock: f64,
    grid: RegularGrid,
    readers: Vec<Point2>,
    /// Lattice node -> pinned reference tag (for full exports).
    reference_tags: HashMap<GridIndex, TagId>,
    /// Pinned reference tags with their lattice nodes, sorted by slot
    /// index: classifying a reading is a short binary search, not a hash.
    reference_cells: Vec<(TagId, GridIndex)>,
    /// Last exported calibration map, updated in place.
    cached_map: Option<ReferenceRssiMap>,
    /// Changed reference cells not yet applied to `cached_map`.
    dirty_ref_cells: Vec<(GridIndex, ReaderId)>,
    /// Cells whose `cached_map` value bit-changed, not yet drained by
    /// [`MiddlewareStage::take_dirty_cells`]; `service_dirty_set` dedups.
    service_dirty: Vec<DirtyCell>,
    service_dirty_set: HashSet<DirtyCell>,
    /// Tracking tags with changed readings, in first-dirtied order.
    dirty_tracking: Vec<TagId>,
    dirty_tracking_set: HashSet<TagId>,
    /// Final readings of dirty lifetimes whose slot a newer generation
    /// took over before the drain: their filters are gone, so the drain
    /// takes the reading from here, in its first-dirtied place.
    taken_over: Vec<(TagId, TrackingReading)>,
    /// Tracking tags removed upstream, not yet drained by
    /// [`MiddlewareStage::take_removed_tags`].
    removed: Vec<TagId>,
    slot_stats: SlotStats,
}

impl MiddlewareStage {
    /// Wraps `middleware` as a pipeline stage. `grid` and `readers`
    /// describe the deployment; pin reference tags with
    /// [`MiddlewareStage::pin_reference`].
    ///
    /// # Panics
    /// Panics when `middleware` was built for a different reader count.
    pub fn new(middleware: Middleware, grid: RegularGrid, readers: Vec<Point2>) -> Self {
        assert_eq!(
            middleware.reader_count(),
            readers.len(),
            "the middleware must hold one stream per deployment reader"
        );
        MiddlewareStage {
            middleware,
            clock: 0.0,
            grid,
            readers,
            reference_tags: HashMap::new(),
            reference_cells: Vec::new(),
            cached_map: None,
            dirty_ref_cells: Vec::new(),
            service_dirty: Vec::new(),
            service_dirty_set: HashSet::new(),
            dirty_tracking: Vec::new(),
            dirty_tracking_set: HashSet::new(),
            taken_over: Vec::new(),
            removed: Vec::new(),
            slot_stats: SlotStats::default(),
        }
    }

    /// Notes that tracking tag `id` was removed upstream: its smoothing
    /// filters are dropped from the middleware, any pending dirty entry
    /// for it is discarded, and the removal is queued for
    /// [`MiddlewareStage::take_removed_tags`] so the location service can
    /// evict the tag's track immediately instead of waiting for the
    /// stale-track sweep.
    pub fn note_removed(&mut self, id: TagId) {
        self.middleware.forget_tag(id);
        self.drop_pending(id);
        self.removed.push(id);
    }

    /// Discards `id`'s pending dirty entry, if any.
    fn drop_pending(&mut self, id: TagId) {
        if self.dirty_tracking_set.remove(&id) {
            self.dirty_tracking.retain(|t| *t != id);
            self.taken_over.retain(|(t, _)| *t != id);
        }
    }

    /// Drains the tracking tags removed upstream since the last drain —
    /// the [`SnapshotSource::removed_tags`] seam.
    pub fn take_removed_tags(&mut self) -> Vec<TagId> {
        std::mem::take(&mut self.removed)
    }

    /// Declares `tag` as the reference tag pinned to lattice node `idx`.
    /// Readings from pinned tags feed the calibration map instead of the
    /// tracking dirty set; readings naming the pinned slot at any other
    /// generation are rejected.
    pub fn pin_reference(&mut self, idx: GridIndex, tag: TagId) {
        self.reference_tags.insert(idx, tag);
        match self
            .reference_cells
            .binary_search_by_key(&tag.index, |&(t, _)| t.index)
        {
            Ok(at) => self.reference_cells[at] = (tag, idx),
            Err(at) => self.reference_cells.insert(at, (tag, idx)),
        }
    }

    /// Smooths one reading into its `(tag, reader)` filter, advancing the
    /// clock and recording the cell as dirty when its smoothed value
    /// bit-changed. Returns whether it changed.
    ///
    /// The newest generation heard on a slot owns it: its first reading
    /// takes the slot over (see [`Middleware::ingest`]). A dead lifetime
    /// still pending drains once more, with its final reading, when every
    /// reader had heard it; one never heard by every reader could never
    /// complete and is dropped. Readings from an older generation, from a
    /// pinned reference slot at another generation, or from an unknown
    /// reader are rejected and counted in [`MiddlewareStage::slot_stats`].
    pub fn ingest(&mut self, reading: Reading) -> bool {
        let cell = match self
            .reference_cells
            .binary_search_by_key(&reading.tag.index, |&(t, _)| t.index)
        {
            Ok(at) if self.reference_cells[at].0 != reading.tag => {
                self.slot_stats.reference_generation += 1;
                return false;
            }
            Ok(at) => Some(self.reference_cells[at].1),
            Err(_) => None,
        };
        let changed = match self.middleware.ingest(reading) {
            Smoothed::Stale => {
                self.slot_stats.stale_generation += 1;
                return false;
            }
            Smoothed::UnknownReader => {
                self.slot_stats.unknown_reader += 1;
                return false;
            }
            Smoothed::TookOver { dead, last } => {
                self.slot_stats.takeovers += 1;
                match last {
                    Some(last) if self.dirty_tracking_set.contains(&dead) => {
                        self.taken_over.push((dead, last))
                    }
                    _ => self.drop_pending(dead),
                }
                true
            }
            Smoothed::Changed => true,
            Smoothed::Unchanged => false,
        };
        if reading.time > self.clock {
            self.clock = reading.time;
        }
        if !changed {
            return false;
        }
        match cell {
            Some(cell) => self.dirty_ref_cells.push((cell, reading.reader)),
            // A beacon's readings arrive back to back: the last-entry check
            // spares the set lookup for all but the first of them.
            None if self.dirty_tracking.last() != Some(&reading.tag)
                && self.dirty_tracking_set.insert(reading.tag) =>
            {
                self.dirty_tracking.push(reading.tag)
            }
            None => {}
        }
        true
    }

    /// [`MiddlewareStage::ingest`]s every event published to `bus` since
    /// `token` last read. Returns what was consumed.
    pub fn pump(&mut self, bus: &EventBus<Reading>, token: &mut ReaderToken) -> PumpStats {
        let read = bus.read(token);
        let mut stats = PumpStats {
            lagged: read.lagged(),
            ..PumpStats::default()
        };
        for &reading in read {
            stats.events += 1;
            stats.changed += usize::from(self.ingest(reading));
        }
        stats
    }

    /// The wrapped middleware (smoothed table, raw log ring).
    pub fn middleware(&self) -> &Middleware {
        &self.middleware
    }

    /// Timestamp of the newest ingested reading, seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Takeovers and rejected readings so far, by reason.
    pub fn slot_stats(&self) -> SlotStats {
        self.slot_stats
    }

    /// Number of tracking tags currently marked dirty.
    pub fn pending_tracking(&self) -> usize {
        self.dirty_tracking.len()
    }

    /// The reference calibration map, refreshed incrementally.
    ///
    /// The first successful call performs a full export; afterwards only
    /// the `(cell, reader)` entries whose smoothed value changed are
    /// rewritten in the cached map. `None` while some (reference tag,
    /// reader) pair has no smoothed value yet.
    pub fn reference_map(&mut self) -> Option<&ReferenceRssiMap> {
        if self.cached_map.is_none() {
            self.cached_map =
                self.middleware
                    .reference_map(self.grid, &self.reference_tags, &self.readers);
            if self.cached_map.is_some() {
                // The full export already reflects every pending change,
                // and a consumer binding to this brand-new map has no
                // prior state a dirty hint could patch.
                self.dirty_ref_cells.clear();
            }
        } else {
            self.flush_ref_cells();
        }
        self.cached_map.as_ref()
    }

    /// Applies pending reference-cell changes to the cached map, recording
    /// the cells whose value actually bit-changed for
    /// [`MiddlewareStage::take_dirty_cells`].
    fn flush_ref_cells(&mut self) {
        let Some(map) = self.cached_map.as_mut() else {
            return;
        };
        for (cell, reader) in self.dirty_ref_cells.drain(..) {
            let tag = self.reference_tags[&cell];
            let value = self
                .middleware
                .rssi(tag, reader)
                .expect("a dirty cell was ingested at least once");
            let k = reader.0 as usize;
            if map.set_rssi(k, cell, value) && self.service_dirty_set.insert((k, cell)) {
                self.service_dirty.push((k, cell));
            }
        }
    }

    /// Drains the calibration cells whose cached-map value bit-changed
    /// since the last drain, as `(reader, cell)` pairs — the
    /// [`SnapshotSource::take_dirty_cells`] seam.
    ///
    /// Pending reference changes are flushed into the cached map first, so
    /// the returned set is **complete** up to this call: a consumer that
    /// patches its prepared state by exactly these cells ends up
    /// bit-identical to rebuilding against
    /// [`MiddlewareStage::reference_map`].
    pub fn take_dirty_cells(&mut self) -> Vec<DirtyCell> {
        self.flush_ref_cells();
        self.service_dirty_set.clear();
        std::mem::take(&mut self.service_dirty)
    }

    /// Drains the tracking tags whose smoothed reading changed since the
    /// last drain, in first-dirtied order. Tags not yet heard by every
    /// reader stay pending instead of being returned or dropped.
    pub fn changed_readings(&mut self) -> Vec<(TagId, TrackingReading)> {
        let reader_count = self.readers.len();
        let mut out = Vec::with_capacity(self.dirty_tracking.len());
        let mut pending = Vec::new();
        for tag in std::mem::take(&mut self.dirty_tracking) {
            let reading = self
                .middleware
                .tracking_reading(tag, reader_count)
                .or_else(|| {
                    let at = self.taken_over.iter().position(|(t, _)| *t == tag)?;
                    Some(self.taken_over.swap_remove(at).1)
                });
            match reading {
                Some(reading) => {
                    self.dirty_tracking_set.remove(&tag);
                    out.push((tag, reading));
                }
                None => pending.push(tag),
            }
        }
        self.dirty_tracking = pending;
        out
    }
}

impl SnapshotSource for MiddlewareStage {
    fn snapshot_time(&self) -> f64 {
        self.clock
    }

    fn reference_map(&mut self) -> Option<&ReferenceRssiMap> {
        MiddlewareStage::reference_map(self)
    }

    fn changed_readings(&mut self) -> Vec<(TagId, TrackingReading)> {
        MiddlewareStage::changed_readings(self)
    }

    fn removed_tags(&mut self) -> Vec<TagId> {
        MiddlewareStage::take_removed_tags(self)
    }

    fn take_dirty_cells(&mut self) -> Vec<DirtyCell> {
        MiddlewareStage::take_dirty_cells(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoothing::SmoothingKind;

    fn reading(time: f64, tag: u32, reader: u32, rssi: f64) -> Reading {
        Reading {
            time,
            tag: TagId::first(tag),
            reader: ReaderId(reader),
            rssi,
        }
    }

    /// 2×2 lattice with tags 0–3 pinned, one reader, tag 10 tracking.
    fn stage_and_bus() -> (MiddlewareStage, EventBus<Reading>, ReaderToken) {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let bus = EventBus::with_capacity(64);
        let token = bus.reader();
        let mut stage = MiddlewareStage::new(
            Middleware::new(SmoothingKind::Raw, 1, false),
            grid,
            vec![Point2::new(-1.0, -1.0)],
        );
        for (n, idx) in grid.indices().enumerate() {
            stage.pin_reference(idx, TagId::first(n as u32));
        }
        (stage, bus, token)
    }

    #[test]
    fn ingest_reports_changes_and_tracks_clock() {
        let (mut stage, _, _) = stage_and_bus();
        assert!(stage.ingest(reading(2.0, 10, 0, -80.0)));
        assert!(!stage.ingest(reading(1.0, 10, 0, -80.0)), "same value");
        assert_eq!(stage.clock(), 2.0, "the clock never runs backwards");
        assert_eq!(stage.pending_tracking(), 1);
    }

    #[test]
    fn pump_applies_smoothing_and_tracks_clock() {
        let (mut stage, mut bus, mut token) = stage_and_bus();
        bus.publish(reading(1.0, 0, 0, -70.0));
        bus.publish(reading(3.0, 10, 0, -80.0));
        let stats = stage.pump(&bus, &mut token);
        assert_eq!(stats.events, 2);
        assert_eq!(stats.changed, 2);
        assert_eq!(stats.lagged, 0);
        assert_eq!(stage.clock(), 3.0);
        assert_eq!(
            stage.middleware().rssi(TagId::first(0), ReaderId(0)),
            Some(-70.0)
        );
        // Repeating the identical reading changes nothing.
        bus.publish(reading(4.0, 0, 0, -70.0));
        let stats = stage.pump(&bus, &mut token);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.changed, 0);
    }

    #[test]
    fn reference_map_is_incrementally_refreshed() {
        let (mut stage, mut bus, mut token) = stage_and_bus();
        // Incomplete coverage -> None.
        bus.publish(reading(0.0, 0, 0, -70.0));
        stage.pump(&bus, &mut token);
        assert!(stage.reference_map().is_none());
        // Complete coverage -> full export.
        for n in 1..4u32 {
            bus.publish(reading(0.5, n, 0, -70.0 - n as f64));
        }
        stage.pump(&bus, &mut token);
        let map = stage.reference_map().expect("complete");
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -70.0);
        // A changed cell is rewritten in place; untouched cells keep
        // their values.
        bus.publish(reading(1.0, 0, 0, -90.0));
        stage.pump(&bus, &mut token);
        let map = stage.reference_map().expect("still complete");
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -90.0);
        assert_eq!(map.rssi(0, GridIndex::new(1, 1)), -73.0);
    }

    #[test]
    fn changed_readings_drains_only_dirty_tracking_tags() {
        let (mut stage, mut bus, mut token) = stage_and_bus();
        bus.publish(reading(0.0, 10, 0, -75.0));
        bus.publish(reading(0.0, 11, 0, -85.0));
        stage.pump(&bus, &mut token);
        let changed = stage.changed_readings();
        assert_eq!(changed.len(), 2);
        assert_eq!(changed[0].0, TagId::first(10), "first-dirtied order");
        assert_eq!(changed[0].1.rssi(), &[-75.0]);
        // Drained: nothing pending until a value changes again.
        assert!(stage.changed_readings().is_empty());
        bus.publish(reading(1.0, 11, 0, -80.0));
        stage.pump(&bus, &mut token);
        let changed = stage.changed_readings();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].0, TagId::first(11));
    }

    #[test]
    fn partially_heard_tracking_tags_stay_pending() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let bus_readers = vec![Point2::new(-1.0, -1.0), Point2::new(2.0, 2.0)];
        let mut bus = EventBus::with_capacity(16);
        let mut token = bus.reader();
        let mut stage = MiddlewareStage::new(
            Middleware::new(SmoothingKind::Raw, 2, false),
            grid,
            bus_readers,
        );
        // Tag 5 heard by reader 0 only: no complete reading vector yet.
        bus.publish(reading(0.0, 5, 0, -70.0));
        stage.pump(&bus, &mut token);
        assert!(stage.changed_readings().is_empty());
        assert_eq!(stage.pending_tracking(), 1);
        // Reader 1 decodes it -> the reading completes and drains.
        bus.publish(reading(1.0, 5, 1, -72.0));
        stage.pump(&bus, &mut token);
        let changed = stage.changed_readings();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].1.rssi(), &[-70.0, -72.0]);
        assert_eq!(stage.pending_tracking(), 0);
    }

    #[test]
    fn take_dirty_cells_reports_each_bit_changed_cell_once() {
        let (mut stage, mut bus, mut token) = stage_and_bus();
        for n in 0..4u32 {
            bus.publish(reading(0.0, n, 0, -70.0 - n as f64));
        }
        stage.pump(&bus, &mut token);
        assert!(stage.reference_map().is_some());
        assert!(
            stage.take_dirty_cells().is_empty(),
            "a fresh full export has no deltas to report"
        );
        // Two updates to one cell plus one to another, drained without an
        // intervening reference_map() call: the drain flushes them itself
        // and coalesces the repeat.
        bus.publish(reading(1.0, 0, 0, -90.0));
        bus.publish(reading(2.0, 0, 0, -91.0));
        bus.publish(reading(2.0, 1, 0, -75.0));
        stage.pump(&bus, &mut token);
        let dirty = stage.take_dirty_cells();
        assert_eq!(dirty.len(), 2);
        assert!(dirty.contains(&(0, GridIndex::new(0, 0))));
        assert!(dirty.contains(&(0, GridIndex::new(1, 0))));
        // The flush already applied the changes to the cached map.
        let map = stage.reference_map().expect("still complete");
        assert_eq!(map.rssi(0, GridIndex::new(0, 0)), -91.0);
        assert!(stage.take_dirty_cells().is_empty(), "drained");
        // Re-publishing the identical value dirties nothing.
        bus.publish(reading(3.0, 0, 0, -91.0));
        stage.pump(&bus, &mut token);
        assert!(stage.take_dirty_cells().is_empty());
    }

    #[test]
    fn lag_is_recorded_not_fatal() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let mut bus = EventBus::with_capacity(2);
        let mut token = bus.reader();
        let mut stage = MiddlewareStage::new(
            Middleware::new(SmoothingKind::Raw, 1, false),
            grid,
            vec![Point2::new(-1.0, -1.0)],
        );
        for n in 0..5 {
            bus.publish(reading(n as f64, 10, 0, -70.0 - n as f64));
        }
        let stats = stage.pump(&bus, &mut token);
        assert_eq!(stats.lagged, 3);
        assert_eq!(stats.events, 2);
        // The survivors were still applied.
        assert_eq!(
            stage.middleware().rssi(TagId::first(10), ReaderId(0)),
            Some(-74.0)
        );
    }

    fn at(time: f64, tag: TagId, reader: u32, rssi: f64) -> Reading {
        Reading {
            tag,
            ..reading(time, 0, reader, rssi)
        }
    }

    #[test]
    fn a_reference_slot_at_another_generation_is_rejected() {
        let (mut stage, _, _) = stage_and_bus();
        for n in 0..4u32 {
            stage.ingest(reading(0.0, n, 0, -70.0 - n as f64));
        }
        let map = stage.reference_map().expect("complete").clone();
        // Slot 2 is pinned at generation 0; a reading at generation 1 must
        // neither take the calibration cell over nor become a tracking tag.
        for generation in [1, 7] {
            assert!(!stage.ingest(at(5.0, TagId::new(2, generation), 0, -20.0)));
        }
        assert_eq!(stage.slot_stats().reference_generation, 2);
        assert_eq!(stage.slot_stats().rejected(), 2);
        assert_eq!(stage.pending_tracking(), 0);
        assert_eq!(stage.clock(), 0.0, "rejected readings do not advance time");
        assert!(stage.take_dirty_cells().is_empty());
        let after = stage.reference_map().expect("still complete");
        for idx in after.grid().indices() {
            assert_eq!(after.rssi(0, idx).to_bits(), map.rssi(0, idx).to_bits());
        }
        // The pinned generation still feeds its cell.
        assert!(stage.ingest(reading(6.0, 2, 0, -60.0)));
        let cell = GridIndex::new(0, 1);
        assert_eq!(
            stage.reference_map().expect("complete").rssi(0, cell),
            -60.0
        );
    }

    #[test]
    fn a_takeover_drops_the_dead_lifetimes_pending_entry() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let readers = vec![Point2::new(-1.0, -1.0), Point2::new(2.0, 2.0)];
        let mut stage =
            MiddlewareStage::new(Middleware::new(SmoothingKind::Raw, 2, false), grid, readers);
        let (old, new) = (TagId::new(9, 0), TagId::new(9, 1));
        // The old lifetime dies heard by one reader of two: pending.
        assert!(stage.ingest(at(0.0, old, 0, -70.0)));
        assert_eq!(stage.pending_tracking(), 1);
        assert!(stage.ingest(at(1.0, new, 1, -75.0)));
        assert_eq!(stage.slot_stats().takeovers, 1);
        assert_eq!(
            stage.pending_tracking(),
            1,
            "only the new lifetime is pending"
        );
        // A straggler from the dead lifetime is rejected and re-dirties
        // nothing.
        assert!(!stage.ingest(at(2.0, old, 0, -71.0)));
        assert_eq!(stage.slot_stats().stale_generation, 1);
        assert!(stage.ingest(at(2.0, new, 0, -72.0)));
        let changed = stage.changed_readings();
        assert_eq!(changed.len(), 1);
        assert_eq!(changed[0].0, new);
        assert_eq!(changed[0].1.rssi(), &[-72.0, -75.0]);
        // An unknown reader is rejected too.
        assert!(!stage.ingest(at(3.0, new, 2, -60.0)));
        assert_eq!(
            stage.slot_stats(),
            SlotStats {
                takeovers: 1,
                stale_generation: 1,
                reference_generation: 0,
                unknown_reader: 1,
            }
        );
    }

    #[test]
    fn a_taken_over_lifetimes_final_change_still_drains_in_place() {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 2);
        let readers = vec![Point2::new(-1.0, -1.0), Point2::new(2.0, 2.0)];
        let mut stage =
            MiddlewareStage::new(Middleware::new(SmoothingKind::Raw, 2, false), grid, readers);
        let (other, old, new) = (TagId::first(4), TagId::new(9, 0), TagId::new(9, 1));
        stage.ingest(at(0.0, old, 0, -70.0));
        stage.ingest(at(0.0, old, 1, -71.0));
        stage.ingest(at(0.5, other, 0, -60.0));
        stage.ingest(at(0.5, other, 1, -61.0));
        // The next lifetime is heard by one reader before the drain.
        assert!(stage.ingest(at(1.0, new, 0, -75.0)));
        let changed = stage.changed_readings();
        let tags: Vec<TagId> = changed.iter().map(|(t, _)| *t).collect();
        assert_eq!(tags, vec![old, other], "first-dirtied order kept");
        assert_eq!(changed[0].1.rssi(), &[-70.0, -71.0]);
        assert_eq!(
            stage.pending_tracking(),
            1,
            "the new lifetime awaits reader 1"
        );
        assert!(stage.changed_readings().is_empty(), "drained once");
    }
}
