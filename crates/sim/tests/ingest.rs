//! The serving-pipeline acceptance pins.
//!
//! **Batching invariance:** the served smoothing state is a function of
//! the reading sequence alone. However a capture is cut into
//! [`IngestServer::accept`] calls — with drives after some chunks and
//! skipped after others — every `(tag, reader)` smoothed value and every
//! tracking tag's reading vector stays `f64::to_bits`-identical to
//! feeding each reading one at a time through a plain [`Middleware`].
//! That holds under tag churn and hostile input too: every live
//! lifetime's streams are a function of that lifetime's own readings,
//! and stragglers, reference slots at other generations and unknown
//! readers are rejected and counted, never stored.
//!
//! **Estimates:** with one drive per chunk, the served localization is
//! bit-identical to a plain bus → stage → service pipeline fed every
//! reading, across all four interpolation kernels.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::OnceLock;
use vire_core::{
    BeaconEvent, InterpolationKernel, LocalizeError, LocationQuery, LocationService, QueryResponse,
    ServiceConfig, TagKey, TrackedEstimate, Vire, VireConfig,
};
use vire_geom::Point2;
use vire_sim::trace::TraceReading;
use vire_sim::{
    EventBus, IngestServer, Middleware, MiddlewareStage, ReaderId, Reading, ServeConfig, SlotStats,
    SmoothingKind, TagId, Testbed, TestbedConfig, Trace,
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
/// vector, as bits — the state a drive reads. `tracking` is the lifetime
/// currently owning the tracking slot.
fn smoothing_bits(mw: &Middleware, trace: &Trace, tracking: TagId) -> Vec<Option<u64>> {
    let readers = trace.readers.len();
    let references = trace.reference_tags.len() as u32;
    let mut out = Vec::new();
    for slot in 0..=references {
        let tag = if slot == references {
            tracking
        } else {
            TagId::first(slot)
        };
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

/// One reading of the hostile stream, and whether it was injected (the
/// server must reject it) rather than taken from the capture.
type Streamed = (TraceReading, bool);

/// The capture with the tracking slot's generation bumped at each of
/// `bumps` (fractions of the capture) and `hostile` readings injected
/// before the capture reading at their position: kind 0 a straggler from
/// an older lifetime of the tracking slot (only once one exists), kind 1
/// a reference slot at another generation, kind 2 a reader past the
/// deployment's readers. Returns the stream and the [`SlotStats`] the
/// server must report after consuming all of it.
fn hostile_stream(
    trace: &Trace,
    bumps: &[f64],
    hostile: &[(f64, u8, u32, u32)],
) -> (Vec<Streamed>, SlotStats) {
    let n = trace.readings.len();
    let tracking = trace.reference_tags.len() as u32;
    let readers = trace.readers.len() as u32;
    let at = |f: f64| ((f * n as f64) as usize).min(n - 1);
    let mut bump_at: Vec<usize> = bumps.iter().map(|&f| at(f)).collect();
    bump_at.sort_unstable();
    let mut inject: Vec<(usize, u8, u32, u32)> = hostile
        .iter()
        .map(|&(f, kind, slot, extra)| (at(f), kind, slot, extra))
        .collect();
    inject.sort_by_key(|h| h.0);

    let mut expect = SlotStats::default();
    let (mut generation, mut owner) = (0u32, None::<u32>);
    let (mut bumps, mut injects) = (bump_at.iter().peekable(), inject.iter().peekable());
    let mut stream = Vec::with_capacity(n + inject.len());
    for (i, r) in trace.readings.iter().enumerate() {
        while bumps.next_if(|&&b| b <= i).is_some() {
            generation += 1;
        }
        while let Some(&(_, kind, slot, extra)) = injects.next_if(|h| h.0 == i) {
            let injected = match kind {
                0 => match owner {
                    Some(o) if o > 0 => {
                        expect.stale_generation += 1;
                        TraceReading {
                            tag: tracking,
                            generation: extra % o,
                            rssi: -20.0,
                            ..*r
                        }
                    }
                    _ => continue,
                },
                1 => {
                    expect.reference_generation += 1;
                    TraceReading {
                        tag: slot % tracking,
                        generation: extra,
                        rssi: -20.0,
                        ..*r
                    }
                }
                _ => {
                    // The tracking slot at its current (possibly not yet
                    // heard) generation: the reader check comes first, so
                    // this never takes the slot over.
                    expect.unknown_reader += 1;
                    TraceReading {
                        tag: tracking,
                        generation,
                        reader: readers + extra,
                        rssi: -20.0,
                        ..*r
                    }
                }
            };
            stream.push((injected, true));
        }
        let mut clean = *r;
        if clean.tag == tracking {
            clean.generation = generation;
            if owner.is_some_and(|o| o != generation) {
                expect.takeovers += 1;
            }
            owner = Some(generation);
        }
        stream.push((clean, false));
    }
    (stream, expect)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary chunkings, with drives skipped between arbitrary chunks,
    /// over a capture whose tracking slot churns through bumped
    /// generations and into which stragglers, reference slots at other
    /// generations and unknown readers are injected: after every chunk
    /// the served smoothing state equals a plain middleware fed the same
    /// prefix, hostile readings removed, one reading at a time, and each
    /// live lifetime's streams equal a fresh middleware fed only that
    /// lifetime's readings. The server counts every injected reading as
    /// rejected.
    #[test]
    fn served_smoothing_is_invariant_to_batching(
        sizes in prop::collection::vec(1usize..400, 1..24),
        drive_after in prop::collection::vec(any::<bool>(), 1..24),
        bumps in prop::collection::vec(0.0..1.0f64, 0..4),
        hostile in prop::collection::vec((0.0..1.0f64, 0u8..3, 0u32..64, 1u32..4), 0..16),
    ) {
        let trace = shared_capture();
        let readers = trace.readers.len();
        let tracking_slot = trace.reference_tags.len() as u32;
        let (stream, expect) = hostile_stream(trace, &bumps, &hostile);
        let mut server = IngestServer::from_trace(
            trace,
            vire(InterpolationKernel::Linear),
            ServeConfig::default(),
        )
        .expect("paper testbed trace infers its own deployment");
        let mut plain = Middleware::new(SmoothingKind::default(), readers, false);
        // One fresh middleware per lifetime, fed only its own readings.
        let mut lifetimes: HashMap<TagId, Middleware> = HashMap::new();
        let mut tracking = TagId::first(tracking_slot);

        let mut at = 0;
        let mut schedule = sizes.iter().cycle().zip(drive_after.iter().cycle());
        let mut undriven = 0;
        while at < stream.len() {
            let (&size, &drive) = schedule.next().expect("cycled");
            let chunk = &stream[at..(at + size).min(stream.len())];
            at += chunk.len();
            prop_assert_eq!(server.accept(chunk.iter().map(|(r, _)| to_beacon(r))), chunk.len());
            undriven += chunk.len();
            for &(r, injected) in chunk {
                if injected {
                    continue;
                }
                let reading: Reading = r.into();
                plain.ingest(reading);
                lifetimes
                    .entry(reading.tag)
                    .or_insert_with(|| Middleware::new(SmoothingKind::default(), readers, false))
                    .ingest(reading);
                if r.tag == tracking_slot {
                    tracking = reading.tag;
                }
            }
            if drive {
                prop_assert_eq!(server.drive().delivered, undriven);
                undriven = 0;
            }
            let served = server.stage().middleware();
            prop_assert_eq!(
                smoothing_bits(served, trace, tracking),
                smoothing_bits(&plain, trace, tracking)
            );
            let live = (0..tracking_slot).map(TagId::first).chain([tracking]);
            for tag in live {
                let own = lifetimes.get(&tag);
                for k in (0..readers as u32).map(ReaderId) {
                    prop_assert_eq!(
                        served.rssi(tag, k).map(f64::to_bits),
                        own.and_then(|mw| mw.rssi(tag, k)).map(f64::to_bits),
                        "{:?}/{:?} is not a function of its own readings", tag, k
                    );
                    prop_assert_eq!(served.fill(tag, k), own.map_or(0, |mw| mw.fill(tag, k)));
                }
            }
        }
        let stats = server.ingest_stats();
        prop_assert_eq!(stats.accepted, stream.len() as u64);
        prop_assert_eq!(stats.delivered, stats.accepted);
        prop_assert_eq!(server.slot_stats(), expect);
        let injected = stream.iter().filter(|(_, injected)| *injected).count();
        prop_assert_eq!(server.slot_stats().rejected(), injected as u64);
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
            Middleware::new(SmoothingKind::default(), trace.readers.len(), false),
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
