//! The serving front end: wire-format ingest, per-reading smoothing, and
//! non-blocking location queries over one localization pipeline.
//!
//! [`IngestServer`] is the deployment-facing assembly of the streaming
//! stack. Accepted beacon events (raw, or trace-schema JSON) go straight
//! into the [`MiddlewareStage`]'s per-`(tag, reader)` smoothing table, one
//! reading at a time and in arrival order; [`IngestServer::drive`] then
//! hands the stage to [`vire_core::LocationService::drive`], which
//! localizes exactly the tags whose smoothed readings changed. Between
//! drives, [`IngestServer::query`] answers position questions from the
//! per-tag Kalman state in O(1) without touching (or blocking) ingestion.
//!
//! The server is built from a [`Trace`]'s deployment metadata
//! ([`Trace::infer_deployment`]), so a captured trace file is all it
//! takes to stand one up — no testbed required.
//!
//! ## Lossless by construction
//!
//! Nothing between `accept` and the smoothing filters can merge, drop or
//! reorder a reading, so the served smoothing state is a function of the
//! reading sequence alone: however a stream is cut into `accept` calls
//! and drives, every filter ends up `f64::to_bits`-identical to feeding
//! the readings one at a time through a plain [`Middleware`] (pinned by
//! `tests/ingest.rs`). A windowed filter such as the default five-reading
//! median must see every reading: fed fewer, its window stretches across
//! batches and the fix lags a moving tag (DESIGN.md §15).
//!
//! ## Bounded by the live tags
//!
//! The smoothing table is slot-major: the newest generation heard on a
//! tag slot owns that slot's streams, its first reading resets them in
//! place, and stragglers from older lifetimes are rejected (as are
//! readings naming a pinned reference slot at another generation, or an
//! unknown reader). However long tags churn, the table holds one entry
//! per slot, never one per lifetime ([`IngestServer::slot_stats`] counts
//! takeovers and rejects).

use crate::middleware::{Middleware, Reading};
use crate::pipeline::{MiddlewareStage, SlotStats};
use crate::reader::ReaderId;
use crate::smoothing::SmoothingKind;
use crate::tag::TagId;
use crate::trace::{Trace, TraceError};
use vire_core::{
    parse_wire, BeaconEvent, IngestConfig, IngestStats, LocalizeError, Localizer, LocationQuery,
    LocationService, QueryResponse, ServiceConfig, TagKey, TrackedEstimate, WireError,
};

/// Configuration for [`IngestServer`].
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Shape of the staging buffers a transport parks readings in ahead
    /// of the server (the network fabric's per-zone buffers).
    pub ingest: IngestConfig,
    /// Location service tuning (stale horizon, tracker, …).
    pub service: ServiceConfig,
    /// Middleware smoothing policy applied to every accepted reading.
    pub smoothing: SmoothingKind,
}

/// What one [`IngestServer::drive`] call consumed and produced.
#[derive(Debug, Clone, Default)]
pub struct DriveReport {
    /// Readings smoothed since the previous drive.
    pub delivered: usize,
    /// Localization results for the tags whose smoothed readings changed,
    /// in first-dirtied order.
    pub results: Vec<(TagKey, Result<TrackedEstimate, LocalizeError>)>,
}

/// A serving pipeline: middleware stage + location service. See the
/// [module docs](self).
#[derive(Debug)]
pub struct IngestServer<L: Localizer> {
    stage: MiddlewareStage,
    service: LocationService<L>,
    stats: IngestStats,
    /// Readings smoothed since the previous drive.
    since_drive: usize,
}

impl<L: Localizer> IngestServer<L> {
    /// Stands up a server for the deployment recorded in `trace` (its
    /// readings are *not* ingested — the trace supplies geometry only;
    /// feed readings through [`IngestServer::accept`] /
    /// [`IngestServer::accept_json`]).
    pub fn from_trace(
        trace: &Trace,
        localizer: L,
        config: ServeConfig,
    ) -> Result<Self, TraceError> {
        let (grid, nodes) = trace.infer_deployment()?;
        let mut stage = MiddlewareStage::new(
            Middleware::new(config.smoothing, trace.readers.len(), false),
            grid,
            trace.reader_positions(),
        );
        for (slot, idx) in nodes {
            stage.pin_reference(idx, TagId::first(slot));
        }
        Ok(IngestServer {
            stage,
            service: LocationService::new(localizer, config.service),
            stats: IngestStats::default(),
            since_drive: 0,
        })
    }

    /// Smooths a burst of raw beacon events, in order, into the
    /// per-`(tag, reader)` filters. Returns how many were accepted
    /// (reference and tracking beacons alike, and readings the smoothing
    /// table rejects — counted in [`IngestServer::slot_stats`]). Events
    /// must be finite — transports check them with
    /// [`vire_core::validate_event`].
    pub fn accept(&mut self, events: impl IntoIterator<Item = BeaconEvent>) -> usize {
        let mut n = 0;
        for e in events {
            self.stage.ingest(Reading {
                time: e.time,
                tag: TagId::new(e.tag.index, e.tag.generation),
                reader: ReaderId(e.reader),
                rssi: e.rssi,
            });
            n += 1;
        }
        self.since_drive += n;
        self.stats.accepted += n as u64;
        self.stats.delivered += n as u64;
        n
    }

    /// Accepts a burst from trace-schema JSON (wire v1 or v2): either a
    /// bare array of readings or a `{"version": …, "readings": […]}`
    /// envelope. A rejected payload accepts nothing.
    pub fn accept_json(&mut self, json: &str) -> Result<usize, WireError> {
        Ok(self.accept(parse_wire(json)?))
    }

    /// Localizes exactly the tags whose smoothed readings changed since
    /// the previous drive, after patching the calibration map's changed
    /// cells.
    pub fn drive(&mut self) -> DriveReport {
        self.stats.batches += 1;
        DriveReport {
            delivered: std::mem::take(&mut self.since_drive),
            results: self.service.drive(&mut self.stage),
        }
    }

    /// Answers a location query from the per-tag Kalman state — O(1),
    /// no locks, no interaction with queued ingest. Fresh tracks are
    /// dead-reckoned to the queried time; evicted or churned-out tags
    /// answer [`QueryResponse::Stale`] from their tombstone.
    pub fn query(&self, q: LocationQuery) -> QueryResponse {
        self.service.query(q)
    }

    /// Cumulative accounting since construction: every accepted reading
    /// is delivered to smoothing at once (`accepted == delivered`, a
    /// reading the smoothing table rejects included), and `batches`
    /// counts drives.
    pub fn ingest_stats(&self) -> IngestStats {
        self.stats
    }

    /// Slot takeovers and readings the smoothing table rejected, by
    /// reason ([`MiddlewareStage::slot_stats`]).
    pub fn slot_stats(&self) -> SlotStats {
        self.stage.slot_stats()
    }

    /// The location service (for estimate export and tuning inspection).
    pub fn service(&self) -> &LocationService<L> {
        &self.service
    }

    /// The middleware stage (smoothing table and dirty state).
    pub fn stage(&self) -> &MiddlewareStage {
        &self.stage
    }

    /// The middleware stage, mutably (for map export in tests and tools).
    pub fn stage_mut(&mut self) -> &mut MiddlewareStage {
        &mut self.stage
    }
}
