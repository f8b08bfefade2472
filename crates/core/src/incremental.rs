//! Keeping prepared state in sync with a moving calibration map: the
//! [`OwnedPreparedLocalizer::sync`] contract, its [`SyncOutcome`], and
//! dirty-cell discovery.
//!
//! [`PreparedVire`](crate::PreparedVire) and
//! [`PreparedLandmarc`](crate::PreparedLandmarc) own a mirror of the map
//! they were prepared against, so they outlive it and can follow later
//! snapshots (their `sync` lives beside their fields in
//! [`crate::prepared`]):
//!
//! * `PreparedVire` re-interpolates only the kernel-support region of
//!   each changed cell (through its
//!   [`GridPatcher`](crate::virtual_grid::GridPatcher)), patches the
//!   flattened reader-major planes in place, and repairs the sorted
//!   planes by a chunked merge — producing state **bit-identical** to a
//!   from-scratch prepare (pinned by property tests in
//!   `tests/incremental.rs`).
//! * `PreparedLandmarc` follows the same lifecycle; a dirty cell is an
//!   O(1) write into the reader-major signal planes.
//!
//! Sync resolves what changed in this order: an `(id, epoch)` match means
//! *nothing* (reuse as-is); the map's change journal yields the exact
//! dirty cells; a caller-supplied hint (the
//! [`SnapshotSource::take_dirty_cells`](crate::pipeline::SnapshotSource::take_dirty_cells)
//! seam) narrows the scan when the journal has been truncated; otherwise a
//! full bit-diff of the coarse map against the owned mirror — still only
//! `readers × nodes` comparisons — recovers the dirty set for maps of
//! unknown provenance. When more than about a sixth of the coarse cells
//! moved, the patch touches most fine rows and columns anyway and the
//! sorted-plane merge dominates, so sync rebuilds instead (the two paths
//! are bit-identical, so the cutover is invisible).

use crate::prepared::PreparedLocalizer;
use crate::types::ReferenceRssiMap;
use vire_geom::GridIndex;

/// One changed calibration entry: `(reader, coarse lattice node)`.
pub type DirtyCell = (usize, GridIndex);

/// What [`OwnedPreparedLocalizer::sync`] did to the prepared state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// The map was bit-identical to the synced state; nothing touched.
    Reused,
    /// The given number of dirty coarse cells were patched in place.
    Patched(usize),
    /// Too many cells moved (or the lattice changed shape); the state was
    /// rebuilt from scratch.
    Rebuilt,
}

/// A prepared localizer that owns its state and can follow a calibration
/// map across snapshots, patching instead of rebuilding.
///
/// `sync` must leave the state bit-identical to preparing against `refs`
/// from scratch — callers (the service layer) choose freely between
/// keeping an instance hot and re-preparing, and results never differ.
/// A localizer whose state cannot be patched implements `sync` as a
/// rebuild.
pub trait OwnedPreparedLocalizer: PreparedLocalizer + Send {
    /// Brings the prepared state up to date with `refs`.
    ///
    /// `hint` is an optional superset of the cells changed since the last
    /// sync (pass `&[]` when unknown); sources that track their own dirty
    /// sets (see
    /// [`SnapshotSource::take_dirty_cells`](crate::pipeline::SnapshotSource::take_dirty_cells))
    /// thread it here so truncated-journal syncs stay O(hint) instead of
    /// O(map).
    fn sync(&mut self, refs: &ReferenceRssiMap, hint: &[DirtyCell]) -> SyncOutcome;
}

/// Figures out which coarse cells differ between `mirror` (the owned copy
/// synced at `synced_epoch` of map `source_id`) and `refs`, writing the
/// deduplicated set into `out`. Every entry is a real bit-difference.
pub(crate) fn discover_dirty(
    mirror: &ReferenceRssiMap,
    refs: &ReferenceRssiMap,
    source_id: u64,
    synced_epoch: u64,
    hint: &[DirtyCell],
    out: &mut Vec<DirtyCell>,
) {
    out.clear();
    let differs =
        |k: usize, idx: GridIndex| mirror.rssi(k, idx).to_bits() != refs.rssi(k, idx).to_bits();
    if refs.id() == source_id {
        if let Some(changes) = refs.changes_since(synced_epoch) {
            // Journal entries can cancel out (A→B→A) or repeat; keep only
            // real net differences, once each.
            out.extend(changes);
            out.sort_unstable_by_key(|&(k, idx)| (k, idx.j, idx.i));
            out.dedup();
            out.retain(|&(k, idx)| differs(k, idx));
            return;
        }
        if !hint.is_empty() {
            // Journal truncated but the source vouches for the hint.
            out.extend(hint.iter().copied());
            out.sort_unstable_by_key(|&(k, idx)| (k, idx.j, idx.i));
            out.dedup();
            out.retain(|&(k, idx)| differs(k, idx));
            return;
        }
    }
    // Unknown provenance (fresh map identity, or a stale journal with no
    // hint): bit-diff the whole coarse table — readers × nodes loads.
    for k in 0..refs.reader_count() {
        for idx in refs.grid().indices() {
            if differs(k, idx) {
                out.push((k, idx));
            }
        }
    }
}

/// Whether the two maps span the same lattice and reader set — the
/// precondition for patching rather than rebuilding.
pub(crate) fn same_shape(a: &ReferenceRssiMap, b: &ReferenceRssiMap) -> bool {
    a.grid() == b.grid() && a.readers() == b.readers()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Landmarc, PreparedVire, TrackingReading, Vire};
    use vire_geom::{GridData, Point2, RegularGrid};

    fn readers() -> Vec<Point2> {
        vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
        ]
    }

    fn rssi_at(p: Point2, r: Point2) -> f64 {
        -60.0 - 22.0 * (p.distance(r).max(0.1)).log10()
    }

    fn map() -> ReferenceRssiMap {
        let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
        let fields = readers()
            .iter()
            .map(|r| GridData::from_fn(grid, |_, p| rssi_at(p, *r)))
            .collect();
        ReferenceRssiMap::new(grid, readers(), fields)
    }

    fn assert_matches_fresh(owned: &PreparedVire, refs: &ReferenceRssiMap) {
        let fresh = Vire::default().prepare(refs).unwrap();
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(owned.planes()), bits(fresh.planes()));
        assert_eq!(bits(owned.sorted_planes()), bits(fresh.sorted_planes()));
    }

    #[test]
    fn sync_reuses_on_identical_epoch() {
        let refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        assert_eq!(owned.sync(&refs, &[]), SyncOutcome::Reused);
    }

    #[test]
    fn sync_patches_via_the_journal_and_matches_fresh() {
        let mut refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        let cell = GridIndex::new(1, 2);
        refs.set_rssi(0, cell, refs.rssi(0, cell) - 4.0);
        assert_eq!(owned.sync(&refs, &[]), SyncOutcome::Patched(1));
        assert_matches_fresh(&owned, &refs);
        // Second sync: nothing new.
        assert_eq!(owned.sync(&refs, &[]), SyncOutcome::Reused);
    }

    #[test]
    fn sync_patches_a_fresh_identity_via_full_diff() {
        let mut refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        // A clone has a new id and empty journal; change two cells.
        let mut other = refs.clone();
        other.set_rssi(1, GridIndex::new(3, 3), -88.25);
        other.set_rssi(2, GridIndex::new(0, 0), -86.5);
        assert_eq!(owned.sync(&other, &[]), SyncOutcome::Patched(2));
        assert_matches_fresh(&owned, &other);
        // Content-identical re-export (another fresh id): reused.
        let reexport = other.clone();
        assert_eq!(owned.sync(&reexport, &[]), SyncOutcome::Reused);
        // And the original map now differs from the synced state.
        refs.set_rssi(0, GridIndex::new(2, 2), -70.125);
        let out = owned.sync(&refs, &[]);
        assert!(matches!(out, SyncOutcome::Patched(_)), "{out:?}");
        assert_matches_fresh(&owned, &refs);
    }

    #[test]
    fn sync_rebuilds_on_bulk_change_and_matches_fresh() {
        let mut refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        for k in 0..refs.reader_count() {
            for idx in refs.grid().indices().collect::<Vec<_>>() {
                let v = refs.rssi(k, idx);
                refs.set_rssi(k, idx, v - 1.5);
            }
        }
        assert_eq!(owned.sync(&refs, &[]), SyncOutcome::Rebuilt);
        assert_matches_fresh(&owned, &refs);
    }

    #[test]
    fn sync_rebuilds_on_lattice_change() {
        let refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        let smaller = refs.without_reader(2).unwrap();
        assert_eq!(owned.sync(&smaller, &[]), SyncOutcome::Rebuilt);
        assert_matches_fresh(&owned, &smaller);
    }

    #[test]
    fn synced_locate_matches_fresh_prepare() {
        let mut refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        refs.set_rssi(1, GridIndex::new(2, 1), -84.75);
        owned.sync(&refs, &[]);
        let fresh = Vire::default().prepare(&refs).unwrap();
        let reading = TrackingReading::new(
            readers()
                .iter()
                .map(|r| rssi_at(Point2::new(1.3, 2.2), *r))
                .collect(),
        );
        assert_eq!(
            owned.locate(&reading).unwrap(),
            fresh.locate(&reading).unwrap()
        );
    }

    #[test]
    fn landmarc_owned_patches_signal_table() {
        let mut refs = map();
        let mut owned = Landmarc::default().prepare(&refs);
        let cell = GridIndex::new(1, 1);
        refs.set_rssi(2, cell, -91.0);
        assert_eq!(owned.sync(&refs, &[]), SyncOutcome::Patched(1));
        let fresh = Landmarc::default().prepare(&refs);
        let reading = TrackingReading::new(
            readers()
                .iter()
                .map(|r| rssi_at(Point2::new(2.2, 0.8), *r))
                .collect(),
        );
        assert_eq!(
            owned.locate(&reading).unwrap(),
            fresh.locate(&reading).unwrap()
        );
        // The patched signal planes match a rebuilt instance exactly.
        let rebuilt = Landmarc::default().prepare(&refs);
        let bits = |s: &[f64]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(owned.planes()), bits(rebuilt.planes()));
    }

    #[test]
    fn hint_path_is_used_when_the_journal_is_gone() {
        let mut refs = map();
        let mut owned = Vire::default().prepare(&refs).unwrap();
        // Overflow the journal (capacity 2 × 3 × 16 = 96) with churn on
        // one cell, netting out to a small real change set.
        let cell = GridIndex::new(2, 3);
        for step in 0..120 {
            refs.set_rssi(0, cell, -75.0 - (step % 7) as f64 * 0.25);
        }
        assert!(refs.changes_since(0).is_none());
        let hint = vec![(0usize, cell)];
        assert_eq!(owned.sync(&refs, &hint), SyncOutcome::Patched(1));
        assert_matches_fresh(&owned, &refs);
    }
}
