//! The serving-pipeline acceptance pins.
//!
//! **Batching invariance:** the served smoothing state is a function of
//! the reading sequence alone. However a capture is cut into
//! [`IngestServer::accept`] calls — with drives after some chunks and
//! skipped after others — every `(tag, reader)` smoothed value and every
//! tracking tag's reading vector stays `f64::to_bits`-identical to
//! feeding each reading one at a time through a plain [`Middleware`].
//!
//! **Estimates:** with one drive per chunk, the served localization is
//! bit-identical to a plain bus → stage → service pipeline fed every
//! reading, across all four interpolation kernels.

use proptest::prelude::*;
use std::sync::OnceLock;
use vire_core::{
    BeaconEvent, InterpolationKernel, LocalizeError, LocationQuery, LocationService, QueryResponse,
    ServiceConfig, TagKey, TrackedEstimate, Vire, VireConfig,
};
use vire_geom::Point2;
use vire_sim::trace::TraceReading;
use vire_sim::{
    EventBus, IngestServer, Middleware, MiddlewareStage, ReaderId, ServeConfig, SmoothingKind,
    TagId, Testbed, TestbedConfig, Trace,
};

type DriveResult = Vec<(TagKey, Result<TrackedEstimate, LocalizeError>)>;

fn vire(kernel: InterpolationKernel) -> Vire {
    Vire::new(VireConfig {
        kernel,
        ..VireConfig::default()
    })
}

/// A 40 s paper-testbed capture with one tracking tag that relocates
/// halfway through, so drives cover both steady tracking and a step.
fn capture() -> Trace {
    let mut cfg = TestbedConfig::paper(vire_env::presets::env2(), 11);
    cfg.keep_log = true;
    let mut tb = Testbed::new(cfg);
    let id = tb.add_tracking_tag(Point2::new(1.2, 1.1));
    tb.run_for(20.0);
    tb.move_tag(id, Point2::new(2.0, 2.3));
    tb.run_for(20.0);
    tb.export_trace("ingest oracle capture")
}

/// [`capture`], simulated once for the whole property run.
fn shared_capture() -> &'static Trace {
    static TRACE: OnceLock<Trace> = OnceLock::new();
    TRACE.get_or_init(capture)
}

fn to_beacon(r: &TraceReading) -> BeaconEvent {
    BeaconEvent {
        time: r.time,
        tag: TagKey::new(r.tag, r.generation),
        reader: r.reader,
        rssi: r.rssi,
    }
}

fn bits(results: &DriveResult) -> Vec<(TagKey, Result<Vec<u64>, String>)> {
    results
        .iter()
        .map(|(tag, r)| {
            let payload = match r {
                Ok(e) => Ok(vec![
                    e.position.x.to_bits(),
                    e.position.y.to_bits(),
                    e.velocity.x.to_bits(),
                    e.velocity.y.to_bits(),
                    e.sigma.0.to_bits(),
                    e.sigma.1.to_bits(),
                    e.raw.position.x.to_bits(),
                    e.raw.position.y.to_bits(),
                ]),
                Err(e) => Err(format!("{e:?}")),
            };
            (*tag, payload)
        })
        .collect()
}

/// Every `(tag, reader)` smoothed value and every tracking tag's reading
/// vector, as bits — the state a drive reads.
fn smoothing_bits(mw: &Middleware, trace: &Trace) -> Vec<Option<u64>> {
    let readers = trace.readers.len();
    let references = trace.reference_tags.len() as u32;
    let mut out = Vec::new();
    for slot in 0..=references {
        let tag = TagId::first(slot);
        for k in 0..readers {
            out.push(mw.rssi(tag, ReaderId(k as u32)).map(f64::to_bits));
        }
        if slot == references {
            // Slot 16 is the tracking tag.
            out.extend(mw.tracking_reading(tag, readers).map_or(vec![None], |r| {
                r.rssi().iter().map(|v| Some(v.to_bits())).collect()
            }));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary chunkings, with drives skipped between arbitrary chunks:
    /// after every chunk the served smoothing state equals a plain
    /// middleware fed the same prefix one reading at a time.
    #[test]
    fn served_smoothing_is_invariant_to_batching(
        sizes in prop::collection::vec(1usize..400, 1..24),
        drive_after in prop::collection::vec(any::<bool>(), 1..24),
    ) {
        let trace = shared_capture();
        let mut server = IngestServer::from_trace(
            trace,
            vire(InterpolationKernel::Linear),
            ServeConfig::default(),
        )
        .expect("paper testbed trace infers its own deployment");
        let mut plain = Middleware::new(SmoothingKind::default(), false);

        let mut at = 0;
        let mut schedule = sizes.iter().cycle().zip(drive_after.iter().cycle());
        let mut undriven = 0;
        while at < trace.readings.len() {
            let (&size, &drive) = schedule.next().expect("cycled");
            let chunk = &trace.readings[at..(at + size).min(trace.readings.len())];
            at += chunk.len();
            prop_assert_eq!(server.accept(chunk.iter().map(to_beacon)), chunk.len());
            undriven += chunk.len();
            for r in chunk {
                plain.ingest((*r).into());
            }
            if drive {
                prop_assert_eq!(server.drive().delivered, undriven);
                undriven = 0;
            }
            prop_assert_eq!(
                smoothing_bits(server.stage().middleware(), trace),
                smoothing_bits(&plain, trace)
            );
        }
        let stats = server.ingest_stats();
        prop_assert_eq!(stats.accepted, trace.readings.len() as u64);
        prop_assert_eq!(stats.delivered, stats.accepted);
    }
}

#[test]
fn one_drive_per_chunk_matches_a_reading_by_reading_pipeline_all_kernels() {
    let trace = shared_capture();
    assert!(trace.readings.len() > 1000, "capture too small to stress");
    // Bursts of ~5 beacon rounds: several readings per key per chunk.
    let chunks: Vec<&[TraceReading]> = trace.readings.chunks(340).collect();

    for kernel in InterpolationKernel::ALL {
        let mut server = IngestServer::from_trace(trace, vire(kernel), ServeConfig::default())
            .expect("paper testbed trace infers its own deployment");

        // Oracle arm: a plain pipeline fed every reading through a bus
        // big enough to never lag.
        let (grid, nodes) = trace.infer_deployment().unwrap();
        let mut bus = EventBus::with_capacity(8192);
        let mut token = bus.reader();
        let mut stage = MiddlewareStage::new(
            Middleware::new(SmoothingKind::default(), false),
            grid,
            trace.reader_positions(),
        );
        for (slot, idx) in nodes {
            stage.pin_reference(idx, TagId::first(slot));
        }
        let mut oracle = LocationService::new(vire(kernel), ServiceConfig::default());

        for chunk in &chunks {
            assert_eq!(server.accept(chunk.iter().map(to_beacon)), chunk.len());
            let report = server.drive();
            assert_eq!(report.delivered, chunk.len(), "every reading is smoothed");

            for &r in *chunk {
                bus.publish(r.into());
            }
            assert_eq!(stage.pump(&bus, &mut token).lagged, 0);
            let expect = oracle.drive(&mut stage);
            assert_eq!(
                bits(&report.results),
                bits(&expect),
                "kernel {kernel:?}: served drive diverged from the reading-by-reading pipeline"
            );
        }
        let stats = server.ingest_stats();
        assert_eq!(stats.accepted, trace.readings.len() as u64);
        assert_eq!(stats.delivered, stats.accepted);
        assert_eq!(stats.batches, chunks.len() as u64);
    }
}

#[test]
fn server_answers_queries_between_drives() {
    let trace = capture();
    let mut server = IngestServer::from_trace(
        &trace,
        vire(InterpolationKernel::Linear),
        ServeConfig::default(),
    )
    .unwrap();

    let tracking = TagKey::new(16, 0); // 16 reference slots, then the tag
    let mut last_time = 0.0f64;
    for chunk in trace.readings.chunks(500) {
        server.accept(chunk.iter().map(to_beacon));
        server.drive();
        last_time = chunk.last().unwrap().time;
    }
    match server.query(LocationQuery {
        tag: tracking,
        at: last_time,
    }) {
        QueryResponse::Fresh { position, age, .. } => {
            assert!(age <= 0.0 + 1e-9, "query at newest snapshot time");
            assert!(position.x.is_finite() && position.y.is_finite());
        }
        other => panic!("tracked tag must answer Fresh, got {other:?}"),
    }
    assert_eq!(
        server.query(LocationQuery {
            tag: TagKey::new(99, 0),
            at: last_time,
        }),
        QueryResponse::Unknown
    );
}

#[test]
fn server_ingests_trace_json_wholesale() {
    let trace = capture();
    let mut server = IngestServer::from_trace(
        &trace,
        vire(InterpolationKernel::Linear),
        ServeConfig::default(),
    )
    .unwrap();
    let accepted = server.accept_json(&trace.to_json()).unwrap();
    assert_eq!(accepted, trace.readings.len());
    let report = server.drive();
    assert_eq!(report.delivered, accepted);
    // One payload holds ~20 readings per key, and every one of them went
    // through smoothing: each reference stream's median window is full.
    let mw = server.stage().middleware();
    for (slot, _) in &trace.reference_tags {
        for k in 0..trace.readers.len() {
            assert_eq!(mw.fill(TagId::first(*slot), ReaderId(k as u32)), 5);
        }
    }
}

/// The core crate's wire-format constants mirror the sim crate's trace
/// schema constants — they describe the same JSON. If one moves without
/// the other, ingest would accept (or reject) versions the trace format
/// does not.
#[test]
fn wire_versions_track_trace_versions() {
    assert_eq!(
        vire_core::ingest::WIRE_VERSION,
        vire_sim::trace::TRACE_VERSION
    );
    assert_eq!(
        vire_core::ingest::WIRE_MIN_VERSION,
        vire_sim::trace::TRACE_MIN_VERSION
    );
}
