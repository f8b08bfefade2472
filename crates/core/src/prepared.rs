//! Prepared (two-phase) localization: bind a localizer to a calibration
//! map once, then answer many queries cheaply.
//!
//! VIRE splits into per-map work (interpolating the virtual reference
//! grid, §4.2) and per-reading work (elimination and weighting, §4.3).
//! This module holds the one prepared form of each algorithm:
//!
//! * **prepare** — [`Vire::prepare`] / [`Landmarc::prepare`] clone the map
//!   into an owned mirror and do all map-dependent work up front: for
//!   VIRE the interpolated [`VirtualGrid`], the per-reader RSSI planes
//!   flattened reader-major for cache-friendly scans, and their sorted
//!   copies; for LANDMARC the same reader-major planes plus node
//!   positions.
//! * **query** — [`PreparedVire::locate_with_scratch`] runs elimination
//!   and weighting through a reusable [`VireScratch`] arena, so steady
//!   state performs **zero heap allocation** per reading.
//! * **sync** — both types own their state, so they outlive the source
//!   map and follow it across calibration snapshots by patching only the
//!   dirty cells ([`OwnedPreparedLocalizer::sync`], in
//!   [`crate::incremental`]).
//!
//! The one-shot [`Localizer::locate`] of both algorithms is prepare +
//! locate on the same types, so there is a single code path to trust.
//! [`PreparedLocalizer::locate_batch`] fans a slice of readings across the
//! shared [`WorkerPool`](crate::pool::WorkerPool) (each lane with its own
//! thread-local scratch), preserving input order; results are
//! bit-identical to calling [`PreparedLocalizer::locate`] per reading.
//!
//! [`OwnedPreparedLocalizer::sync`]: crate::incremental::OwnedPreparedLocalizer::sync

use std::borrow::Borrow;
use std::cell::RefCell;

use crate::elimination::{eliminate_into, flatten_planes, sort_planes, ElimBuffers, ThresholdMode};
use crate::incremental::{
    discover_dirty, same_shape, DirtyCell, OwnedPreparedLocalizer, SyncOutcome,
};
use crate::kernels;
use crate::landmarc::{inverse_square_weights_into, Landmarc, LandmarcConfig};
use crate::localizer::{check_readers, Estimate, LocalizeError, Localizer};
use crate::sorted_vec;
use crate::types::{ReferenceRssiMap, TrackingReading};
use crate::vire_alg::{EmptyFallback, Vire, VireConfig};
use crate::virtual_grid::{GridPatcher, VirtualGrid};
use crate::weights::{candidate_weights_into, WeightBuffers};
use vire_geom::Point2;

/// A localizer already bound to one calibration map. Queries borrow the
/// prepared state immutably, so a single prepared instance can serve many
/// threads at once (`Sync` is a supertrait).
pub trait PreparedLocalizer: Sync {
    /// Estimates the position for one tracking reading.
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError>;

    /// Short human-readable algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Localizes a batch of readings, preserving input order.
    ///
    /// The default fans the slice across the shared
    /// [`WorkerPool`](crate::pool::WorkerPool) via
    /// [`locate_batch_parallel`]; results are identical to calling
    /// [`PreparedLocalizer::locate`] sequentially.
    fn locate_batch(&self, readings: &[TrackingReading]) -> Vec<Result<Estimate, LocalizeError>> {
        locate_batch_parallel(self, readings)
    }

    /// Localizes a batch given by reference, preserving input order — the
    /// clone-free sibling of [`PreparedLocalizer::locate_batch`] for
    /// callers whose readings live inside a larger structure (the
    /// snapshot-driven service path). Same fan-out, same results.
    fn locate_batch_refs(
        &self,
        readings: &[&TrackingReading],
    ) -> Vec<Result<Estimate, LocalizeError>> {
        locate_batch_parallel(self, readings)
    }
}

/// Fans `readings` (owned or by reference) across the persistent
/// [`WorkerPool`](crate::pool::WorkerPool) in contiguous, order-preserving
/// chunks (one per pool lane, capped by the batch size). Each index writes
/// its own pre-allocated output slot, so results are bit-identical to a
/// sequential loop — which is exactly what runs when the pool has no
/// workers or the batch is a single reading.
pub fn locate_batch_parallel<P, R>(
    prepared: &P,
    readings: &[R],
) -> Vec<Result<Estimate, LocalizeError>>
where
    P: PreparedLocalizer + ?Sized,
    R: Borrow<TrackingReading> + Sync,
{
    let pool = crate::pool::WorkerPool::global();
    let lanes = (pool.workers() + 1).min(readings.len());
    if lanes <= 1 {
        return readings
            .iter()
            .map(|r| prepared.locate(r.borrow()))
            .collect();
    }
    let chunk = readings.len().div_ceil(lanes);
    // Placeholder value only; every slot is overwritten below.
    let mut out: Vec<Result<Estimate, LocalizeError>> =
        vec![Err(LocalizeError::AllEliminated); readings.len()];
    // One pool index per contiguous chunk, so each lane reuses its
    // thread-local scratch across the whole chunk instead of per reading.
    let mut chunks: Vec<&mut [Result<Estimate, LocalizeError>]> = out.chunks_mut(chunk).collect();
    pool.for_each_mut(&mut chunks, |c, slots| {
        for (slot, reading) in slots.iter_mut().zip(&readings[c * chunk..]) {
            *slot = prepared.locate(reading.borrow());
        }
    });
    drop(chunks);
    out
}

/// The trivial prepared adapter behind [`Localizer::prepare`]'s default
/// for localizers with no prepared state
/// ([`Localizer::prepare_owned`] returns `None`): holds the localizer and
/// map and delegates every query to the one-shot path. No precomputation,
/// but it still provides `locate_batch`.
pub struct Unprepared<'a, L: ?Sized> {
    inner: &'a L,
    refs: &'a ReferenceRssiMap,
}

impl<'a, L: Localizer + ?Sized> Unprepared<'a, L> {
    /// Binds `inner` to `refs` without precomputation.
    pub fn new(inner: &'a L, refs: &'a ReferenceRssiMap) -> Self {
        Unprepared { inner, refs }
    }
}

impl<L: Localizer + ?Sized> PreparedLocalizer for Unprepared<'_, L> {
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError> {
        self.inner.locate(self.refs, reading)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Reusable per-thread scratch arena for [`PreparedVire`] queries:
/// elimination gap planes and masks, candidate/weight buffers, and the
/// centroid position buffer. After the first query every vector has its
/// steady-state capacity, so subsequent queries allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct VireScratch {
    pub(crate) elim: ElimBuffers,
    pub(crate) weights: WeightBuffers,
    pub(crate) positions: Vec<Point2>,
}

impl VireScratch {
    /// An empty scratch arena; buffers grow to steady-state size on first
    /// use.
    pub fn new() -> Self {
        VireScratch::default()
    }
}

thread_local! {
    /// Scratch for the implicit-arena entry points
    /// ([`PreparedLocalizer::locate`] on [`PreparedVire`], and the
    /// one-shot `Vire::locate` which routes through it). One arena per
    /// thread keeps `locate_batch` workers allocation-free without
    /// synchronization.
    static VIRE_SCRATCH: RefCell<VireScratch> = RefCell::new(VireScratch::new());
}

/// VIRE bound to a calibration map it owns.
///
/// Holds an owned mirror of the map, the interpolated [`VirtualGrid`], the
/// per-reader RSSI planes flattened reader-major
/// (`planes[k * nodes + flat]`) so elimination and weighting scan
/// contiguous memory, their per-reader sorted copies, and the
/// [`GridPatcher`] that lets [`sync`](crate::OwnedPreparedLocalizer::sync)
/// patch all of them in place when a few calibration cells move.
pub struct PreparedVire {
    config: VireConfig,
    grid: VirtualGrid,
    planes: Vec<f64>,
    /// Per-reader ascending-sorted copy of `planes` — elimination's
    /// reading-independent search structure (nearest-gap lookups).
    /// Ordered by [`f64::total_cmp`], so the bytes are a pure function of
    /// each plane's value multiset (the incremental repair relies on it).
    /// Empty under a fixed threshold, which never consults it.
    sorted: Vec<f64>,
    /// Threshold mode with the auto candidate floor already resolved to
    /// `refine²` (see `ThresholdMode::Adaptive::min_candidates`).
    threshold: ThresholdMode,
    patcher: GridPatcher,
    /// Owned mirror of the source map, bit-identical to it as of
    /// (`source_id`, `synced_epoch`).
    refs: ReferenceRssiMap,
    source_id: u64,
    synced_epoch: u64,
    /// Per-reader plane-repair batches (old/new values) + merge scratch.
    removed: Vec<Vec<f64>>,
    inserted: Vec<Vec<f64>>,
    survivors: Vec<f64>,
    dirty_scratch: Vec<DirtyCell>,
}

impl PreparedVire {
    /// Builds the prepared state bound to `refs` (cloned into an internal
    /// mirror). Errors when the configuration is degenerate
    /// (`refine == 0`), before any copy is made.
    fn build(config: &VireConfig, refs: &ReferenceRssiMap) -> Result<Self, LocalizeError> {
        if config.refine == 0 {
            return Err(LocalizeError::InsufficientData(
                "refinement factor must be >= 1".into(),
            ));
        }
        let mirror = refs.clone();
        let (grid, patcher) =
            VirtualGrid::build_with_patcher(&mirror, config.refine, config.kernel);
        let planes = flatten_planes(&grid);
        // The fixed-threshold arm never consults the sorted planes.
        let sorted = match config.threshold {
            ThresholdMode::Fixed(_) => Vec::new(),
            ThresholdMode::Adaptive { .. } => {
                sort_planes(&planes, grid.reader_count(), grid.tag_count())
            }
        };
        // Resolve the auto candidate floor: one physical cell's worth of
        // virtual regions (n²) keeps elimination from degenerating into a
        // single-cell snap (see ThresholdMode::Adaptive::min_candidates).
        let threshold = match config.threshold {
            ThresholdMode::Adaptive {
                step,
                min,
                per_reader,
                min_candidates: 0,
            } => ThresholdMode::Adaptive {
                step,
                min,
                per_reader,
                min_candidates: config.refine * config.refine,
            },
            other => other,
        };
        let k = mirror.reader_count();
        Ok(PreparedVire {
            config: config.clone(),
            grid,
            planes,
            sorted,
            threshold,
            patcher,
            refs: mirror,
            source_id: refs.id(),
            synced_epoch: refs.epoch(),
            removed: vec![Vec::new(); k],
            inserted: vec![Vec::new(); k],
            survivors: Vec::new(),
            dirty_scratch: Vec::new(),
        })
    }

    /// The cached virtual grid.
    pub fn grid(&self) -> &VirtualGrid {
        &self.grid
    }

    /// The configuration this instance was prepared with.
    pub fn config(&self) -> &VireConfig {
        &self.config
    }

    /// The owned mirror of the calibration map this instance is synced to.
    pub fn refs(&self) -> &ReferenceRssiMap {
        &self.refs
    }

    /// The flattened reader-major RSSI planes (`planes[k * nodes + flat]`)
    /// — exposed so bit-identity tests can compare prepared states.
    pub fn planes(&self) -> &[f64] {
        &self.planes
    }

    /// The per-reader ascending-sorted planes (empty under a fixed
    /// threshold) — exposed for bit-identity tests.
    pub fn sorted_planes(&self) -> &[f64] {
        &self.sorted
    }

    /// Localizes one reading through an explicit scratch arena — the
    /// fully allocation-free entry point for callers managing their own
    /// scratch. [`PreparedLocalizer::locate`] is the implicit
    /// (thread-local scratch) equivalent.
    pub fn locate_with_scratch(
        &self,
        reading: &TrackingReading,
        scratch: &mut VireScratch,
    ) -> Result<Estimate, LocalizeError> {
        self.locate_core(reading, scratch).map(|(est, _)| est)
    }

    /// Query core shared by every VIRE entry point (prepared, batch, and
    /// the one-shot [`Vire::locate_with_diagnostics`]). The final mask and
    /// thresholds stay in `scratch` so the diagnostic path can materialize
    /// an `EliminationResult` without a second run; the bool is false when
    /// the fallback path produced the estimate (no elimination diagnostics
    /// exist).
    pub(crate) fn locate_core(
        &self,
        reading: &TrackingReading,
        scratch: &mut VireScratch,
    ) -> Result<(Estimate, bool), LocalizeError> {
        check_readers(&self.refs, reading)?;
        let nodes = self.grid.tag_count();

        if !eliminate_into(
            &self.planes,
            &self.sorted,
            nodes,
            reading,
            self.threshold,
            &mut scratch.elim,
        ) {
            return match self.config.fallback {
                EmptyFallback::Error => Err(LocalizeError::AllEliminated),
                EmptyFallback::Landmarc => {
                    let est =
                        Landmarc::new(LandmarcConfig::default()).locate(&self.refs, reading)?;
                    Ok((est, false))
                }
            };
        }

        if !candidate_weights_into(
            &self.planes,
            nodes,
            self.grid.grid().nx(),
            reading,
            &scratch.elim.mask,
            self.config.weighting,
            self.config.w1,
            &mut scratch.weights,
        ) {
            return Err(LocalizeError::DegenerateWeights);
        }

        let fine = self.grid.grid();
        scratch.positions.clear();
        scratch.positions.extend(
            scratch
                .weights
                .candidates
                .iter()
                .map(|&flat| fine.position(fine.unflat(flat))),
        );
        let position = Point2::weighted_centroid(&scratch.positions, &scratch.weights.weights)
            .ok_or(LocalizeError::DegenerateWeights)?;

        let estimate = Estimate {
            position,
            contributors: scratch.weights.candidates.len(),
            threshold: scratch.elim.thresholds.iter().copied().reduce(f64::max),
        };
        Ok((estimate, true))
    }

    /// Runs `f` with this thread's scratch arena borrowed mutably.
    pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut VireScratch) -> R) -> R {
        VIRE_SCRATCH.with(|s| f(&mut s.borrow_mut()))
    }

    /// Patches the prepared state in place for `dirty` cells whose new
    /// values are already in the mirror — **always** the patch path,
    /// regardless of batch size (`sync` adds the rebuild heuristic on
    /// top). Afterwards `planes`, `sorted_planes`, and the virtual grid
    /// are bit-identical to a from-scratch prepare against the mirror.
    fn apply_dirty(&mut self, dirty: &[DirtyCell]) {
        let k_readers = self.refs.reader_count();
        let nodes = self.grid.tag_count();
        for batch in self.removed.iter_mut().chain(self.inserted.iter_mut()) {
            batch.clear();
        }
        let planes = &mut self.planes;
        let removed = &mut self.removed;
        let inserted = &mut self.inserted;
        self.patcher
            .patch(&mut self.grid, &self.refs, dirty, |k, flat, old, new| {
                planes[k * nodes + flat] = new;
                removed[k].push(old);
                inserted[k].push(new);
            });
        if self.sorted.is_empty() {
            return; // Fixed threshold: no sorted planes to repair.
        }
        for k in 0..k_readers {
            if removed[k].is_empty() {
                continue;
            }
            let segment = &mut self.sorted[k * nodes..(k + 1) * nodes];
            if removed[k].len() <= 8 {
                // Few moves: per-entry rotate is cheaper than a merge.
                for (&old, &new) in removed[k].iter().zip(&inserted[k]) {
                    let hit = sorted_vec::replace(segment, old, new);
                    debug_assert!(hit, "stale sorted plane");
                }
            } else {
                sorted_vec::merge_replace(
                    segment,
                    &mut removed[k],
                    &mut inserted[k],
                    &mut self.survivors,
                );
            }
        }
    }

    /// Rebuilds the state from `refs`, which must span the same lattice and
    /// reader set (the cutover path out of `sync`: too many cells moved for
    /// patching). The new values are adopted into the existing mirror and
    /// re-interpolated into the existing grid and plane buffers —
    /// bit-identical to a fresh prepare, without its allocations. The
    /// config-derived parts (resolved `threshold`, whether the sorted
    /// planes exist at all) depend only on the configuration and stay as
    /// they are.
    fn rebuild(&mut self, refs: &ReferenceRssiMap) {
        self.refs.copy_values_from(refs);
        self.patcher.rebuild(&mut self.grid, &self.refs);
        let nodes = self.grid.tag_count();
        debug_assert_eq!(self.planes.len(), self.grid.reader_count() * nodes);
        for k in 0..self.grid.reader_count() {
            self.planes[k * nodes..(k + 1) * nodes].copy_from_slice(self.grid.field(k).as_slice());
        }
        if !self.sorted.is_empty() {
            // Same total-order sort `sort_planes` runs on a fresh build.
            self.sorted.copy_from_slice(&self.planes);
            for k in 0..self.grid.reader_count() {
                self.sorted[k * nodes..(k + 1) * nodes].sort_unstable_by(f64::total_cmp);
            }
        }
    }
}

impl PreparedLocalizer for PreparedVire {
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError> {
        Self::with_thread_scratch(|scratch| self.locate_with_scratch(reading, scratch))
    }

    fn name(&self) -> &'static str {
        "VIRE"
    }
}

impl OwnedPreparedLocalizer for PreparedVire {
    fn sync(&mut self, refs: &ReferenceRssiMap, hint: &[DirtyCell]) -> SyncOutcome {
        if refs.id() == self.source_id && refs.epoch() == self.synced_epoch {
            return SyncOutcome::Reused;
        }
        if !same_shape(&self.refs, refs) {
            *self = PreparedVire::build(&self.config, refs)
                .expect("refine was validated when this instance was built");
            return SyncOutcome::Rebuilt;
        }
        // Early cutover: every journal entry is one epoch step, so when
        // the map identity matches and the journal still reaches back to
        // the synced epoch, `epoch - synced_epoch` counts the pending
        // changes without materializing them. If even that raw count (an
        // upper bound on the deduplicated dirty set) crosses the rebuild
        // break-even, skip `discover_dirty` entirely — the journal
        // replay, sort, dedup, and mirror compare it performs are pure
        // overhead on a sync that was going to rebuild anyway, and
        // rebuild-vs-patch is a perf choice only (both bit-identical).
        if refs.id() == self.source_id
            && refs.changes_since(self.synced_epoch).is_some()
            && 6 * (refs.epoch() - self.synced_epoch) as usize
                >= refs.reader_count() * refs.grid().node_count()
        {
            self.rebuild(refs);
            self.source_id = refs.id();
            self.synced_epoch = refs.epoch();
            return SyncOutcome::Rebuilt;
        }
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        discover_dirty(
            &self.refs,
            refs,
            self.source_id,
            self.synced_epoch,
            hint,
            &mut dirty,
        );
        let outcome = if dirty.is_empty() {
            SyncOutcome::Reused
        } else if 6 * dirty.len() >= refs.reader_count() * refs.grid().node_count() {
            // Break-even: spread dirty cells touch whole fine rows *and*
            // columns, so the interpolation saving collapses quickly while
            // the sorted-plane merge still pays per changed fine value —
            // measured on the default map (bench `incremental_prepare`),
            // patching loses to rebuild beyond roughly a sixth of the
            // coarse table.
            self.rebuild(refs);
            SyncOutcome::Rebuilt
        } else {
            for &(k, idx) in &dirty {
                self.refs.set_rssi(k, idx, refs.rssi(k, idx));
            }
            self.apply_dirty(&dirty);
            SyncOutcome::Patched(dirty.len())
        };
        self.source_id = refs.id();
        self.synced_epoch = refs.epoch();
        self.dirty_scratch = dirty;
        outcome
    }
}

/// LANDMARC bound to a calibration map it owns: an owned mirror of the
/// map, its reader-major RSSI planes (`planes[k * nodes + flat]`, the
/// same layout [`PreparedVire`] uses) and node positions, so each query
/// runs the lane-chunked squared-E-distance kernel over contiguous plane
/// memory. A dirty calibration cell is one write into the planes
/// ([`sync`](crate::OwnedPreparedLocalizer::sync)).
pub struct PreparedLandmarc {
    config: LandmarcConfig,
    refs: ReferenceRssiMap,
    planes: Vec<f64>,
    positions: Vec<Point2>,
    source_id: u64,
    synced_epoch: u64,
    dirty_scratch: Vec<DirtyCell>,
}

/// Scratch for LANDMARC queries: the kernel's squared-distance plane, the
/// `(e², flat)` selection pairs, and the winner distance/position/weight
/// buffers.
#[derive(Debug, Default)]
struct LandmarcScratch {
    esq: Vec<f64>,
    scored: Vec<(f64, u32)>,
    distances: Vec<f64>,
    positions: Vec<Point2>,
    weights: Vec<f64>,
}

thread_local! {
    static LANDMARC_SCRATCH: RefCell<LandmarcScratch> = RefCell::new(LandmarcScratch::default());
}

impl PreparedLandmarc {
    /// Builds the prepared state bound to `refs` (cloned into an internal
    /// mirror): the per-reader fields flattened reader-major with matching
    /// row-major node positions.
    fn build(config: LandmarcConfig, refs: &ReferenceRssiMap) -> Self {
        let mirror = refs.clone();
        let grid = mirror.grid();
        let mut planes = Vec::with_capacity(mirror.reader_count() * grid.node_count());
        for k in 0..mirror.reader_count() {
            planes.extend_from_slice(mirror.field(k).as_slice());
        }
        let positions = grid.indices().map(|idx| grid.position(idx)).collect();
        PreparedLandmarc {
            config,
            refs: mirror,
            planes,
            positions,
            source_id: refs.id(),
            synced_epoch: refs.epoch(),
            dirty_scratch: Vec::new(),
        }
    }

    /// The owned mirror of the calibration map this instance is synced to.
    pub fn refs(&self) -> &ReferenceRssiMap {
        &self.refs
    }

    /// The reader-major signal planes — for bit-identity tests.
    pub fn planes(&self) -> &[f64] {
        &self.planes
    }

    /// The query core.
    ///
    /// The per-node E-distance plane comes from the vector kernel in
    /// squared form; selection of the `k` nearest runs on `(e², flat)` —
    /// exact because `sqrt` is monotone, with the flat-index tie-break
    /// reproducing the historical stable sort — and the square root is
    /// taken only for the winners before the inverse-square weighting.
    fn locate_with_scratch(
        &self,
        reading: &TrackingReading,
        scratch: &mut LandmarcScratch,
    ) -> Result<Estimate, LocalizeError> {
        check_readers(&self.refs, reading)?;
        let k_select = self.config.k;
        let total_refs = self.positions.len();
        if k_select == 0 || k_select > total_refs {
            return Err(LocalizeError::InsufficientData(format!(
                "k = {k_select} with {total_refs} reference tags"
            )));
        }
        // Same per-node accumulation as `TrackingReading::signal_distance`:
        // Σ_k (θ_k − S_k)², k ascending; node order is the grid's row-major
        // order, as in `Landmarc::signal_distances`.
        kernels::edist_sq_into(&self.planes, total_refs, reading.rssi(), &mut scratch.esq);
        scratch.scored.clear();
        scratch.scored.extend(
            scratch
                .esq
                .iter()
                .enumerate()
                .map(|(flat, &e)| (e, flat as u32)),
        );
        kernels::select_k_smallest(&mut scratch.scored, k_select);

        scratch.distances.clear();
        scratch.positions.clear();
        for &(esq, flat) in scratch.scored.iter() {
            // Deferred sqrt: e = √(Σ d²) bit-matches the historical
            // per-node sqrt because the sum ran in the same order.
            scratch.distances.push(esq.sqrt());
            scratch.positions.push(self.positions[flat as usize]);
        }
        inverse_square_weights_into(&scratch.distances, &mut scratch.weights);

        Point2::weighted_centroid(&scratch.positions, &scratch.weights)
            .map(|position| Estimate::new(position, k_select))
            .ok_or(LocalizeError::DegenerateWeights)
    }
}

impl PreparedLocalizer for PreparedLandmarc {
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError> {
        LANDMARC_SCRATCH.with(|cell| self.locate_with_scratch(reading, &mut cell.borrow_mut()))
    }

    fn name(&self) -> &'static str {
        "LANDMARC"
    }
}

impl OwnedPreparedLocalizer for PreparedLandmarc {
    fn sync(&mut self, refs: &ReferenceRssiMap, hint: &[DirtyCell]) -> SyncOutcome {
        if refs.id() == self.source_id && refs.epoch() == self.synced_epoch {
            return SyncOutcome::Reused;
        }
        if !same_shape(&self.refs, refs) {
            *self = PreparedLandmarc::build(self.config, refs);
            return SyncOutcome::Rebuilt;
        }
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        discover_dirty(
            &self.refs,
            refs,
            self.source_id,
            self.synced_epoch,
            hint,
            &mut dirty,
        );
        let nodes = self.refs.grid().node_count();
        let outcome = if dirty.is_empty() {
            SyncOutcome::Reused
        } else {
            for &(k, idx) in &dirty {
                let value = refs.rssi(k, idx);
                self.refs.set_rssi(k, idx, value);
                self.planes[k * nodes + self.refs.grid().flat(idx)] = value;
            }
            SyncOutcome::Patched(dirty.len())
        };
        self.source_id = refs.id();
        self.synced_epoch = refs.epoch();
        self.dirty_scratch = dirty;
        outcome
    }
}

impl Vire {
    /// Binds this VIRE configuration to a copy of one calibration map,
    /// building the virtual grid, flattened RSSI planes and their sorted
    /// copies once. The result outlives `refs` and can follow later
    /// snapshots through [`sync`](crate::OwnedPreparedLocalizer::sync).
    /// Errors when the configuration is degenerate (`refine == 0`).
    pub fn prepare(&self, refs: &ReferenceRssiMap) -> Result<PreparedVire, LocalizeError> {
        PreparedVire::build(self.config(), refs)
    }
}

impl Landmarc {
    /// Binds this LANDMARC configuration to a copy of one calibration
    /// map, caching reader-major signal planes and node positions. The
    /// result outlives `refs` and can follow later snapshots through
    /// [`sync`](crate::OwnedPreparedLocalizer::sync).
    pub fn prepare(&self, refs: &ReferenceRssiMap) -> PreparedLandmarc {
        PreparedLandmarc::build(LandmarcConfig { k: self.k() }, refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vire_geom::{GridData, RegularGrid};

    fn readers() -> Vec<Point2> {
        vec![
            Point2::new(-1.0, -1.0),
            Point2::new(4.0, -1.0),
            Point2::new(4.0, 4.0),
            Point2::new(-1.0, 4.0),
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

    fn reading_at(p: Point2) -> TrackingReading {
        TrackingReading::new(readers().iter().map(|r| rssi_at(p, *r)).collect())
    }

    fn sample_readings() -> Vec<TrackingReading> {
        [
            (0.7, 2.2),
            (2.3, 2.4),
            (2.5, 1.3),
            (1.4, 0.6),
            (1.5, 1.5),
            (0.2, 0.3),
            (3.1, 2.8),
        ]
        .iter()
        .map(|&(x, y)| reading_at(Point2::new(x, y)))
        .collect()
    }

    #[test]
    fn prepared_vire_matches_one_shot_exactly() {
        let refs = map();
        let vire = Vire::default();
        let prepared = vire.prepare(&refs).unwrap();
        for reading in sample_readings() {
            let one_shot = vire.locate(&refs, &reading).unwrap();
            let fast = prepared.locate(&reading).unwrap();
            assert_eq!(one_shot, fast);
        }
    }

    #[test]
    fn prepared_landmarc_matches_one_shot_exactly() {
        let refs = map();
        let lm = Landmarc::default();
        let prepared = lm.prepare(&refs);
        for reading in sample_readings() {
            assert_eq!(
                lm.locate(&refs, &reading).unwrap(),
                prepared.locate(&reading).unwrap()
            );
        }
    }

    #[test]
    fn batch_matches_sequential_in_order() {
        let refs = map();
        let vire = Vire::default();
        let prepared = vire.prepare(&refs).unwrap();
        let readings = sample_readings();
        let batch = prepared.locate_batch(&readings);
        assert_eq!(batch.len(), readings.len());
        for (reading, batched) in readings.iter().zip(&batch) {
            assert_eq!(
                &prepared.locate(reading).unwrap(),
                batched.as_ref().unwrap()
            );
        }
    }

    #[test]
    fn explicit_scratch_reuse_matches_implicit() {
        let refs = map();
        let prepared = Vire::default().prepare(&refs).unwrap();
        let mut scratch = VireScratch::new();
        for reading in sample_readings() {
            assert_eq!(
                prepared
                    .locate_with_scratch(&reading, &mut scratch)
                    .unwrap(),
                prepared.locate(&reading).unwrap()
            );
        }
    }

    #[test]
    fn prepare_on_degenerate_config_errors_like_locate() {
        let refs = map();
        let vire = Vire::new(VireConfig {
            refine: 0,
            ..VireConfig::default()
        });
        assert!(matches!(
            vire.prepare(&refs),
            Err(LocalizeError::InsufficientData(_))
        ));
        // The trait-level prepare falls back to the unprepared adapter,
        // which reports the same error per reading as the one-shot path.
        let boxed = Localizer::prepare(&vire, &refs);
        assert_eq!(
            boxed
                .locate(&reading_at(Point2::new(1.0, 1.0)))
                .unwrap_err(),
            vire.locate(&refs, &reading_at(Point2::new(1.0, 1.0)))
                .unwrap_err()
        );
    }

    #[test]
    fn default_prepare_adapter_delegates() {
        let refs = map();
        let lm = Landmarc::default();
        let adapter = Unprepared::new(&lm, &refs);
        let reading = reading_at(Point2::new(1.2, 2.1));
        assert_eq!(adapter.name(), "LANDMARC");
        assert_eq!(
            adapter.locate(&reading).unwrap(),
            lm.locate(&refs, &reading).unwrap()
        );
    }

    #[test]
    fn prepared_errors_match_one_shot_on_reader_mismatch() {
        let refs = map();
        let prepared = Vire::default().prepare(&refs).unwrap();
        let short = TrackingReading::new(vec![-70.0]);
        assert_eq!(
            prepared.locate(&short).unwrap_err(),
            Vire::default().locate(&refs, &short).unwrap_err()
        );
    }

    #[test]
    fn batch_propagates_per_reading_errors_in_place() {
        let refs = map();
        let prepared = Vire::default().prepare(&refs).unwrap();
        let readings = vec![
            reading_at(Point2::new(1.5, 1.5)),
            TrackingReading::new(vec![-70.0]),
            reading_at(Point2::new(2.0, 2.0)),
        ];
        let out = prepared.locate_batch(&readings);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(LocalizeError::ReaderMismatch { .. })));
        assert!(out[2].is_ok());
    }
}
