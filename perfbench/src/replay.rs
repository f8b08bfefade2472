//! In-process replay of the gateway stream through the same layers the
//! TCP server runs for one binary `BATCH` frame, called directly:
//! `decode_batch_events` → `ReaderRoute::resolve` → the connection's
//! `IngestFrontEnd` → per-zone shard ring (`IngestFrontEnd`) →
//! `IngestServer::accept` / `drive`, one drive per zone per batch.
//!
//! With a span log, each call is a span whose parent is the batch's
//! handling span; the localizer wrapper adds `sync` and `locate` spans
//! under each drive. Without one, the replay is the correctness oracle's
//! reference and the untraced arm of the tracing-overhead measurement.

use crate::gen::Campus;
use crate::stats::Ledger;
use crate::trace::{with_context, SpanLog, NONE};
use vire_core::{BeaconEvent, IngestFrontEnd, Localizer};
use vire_net::{decode_batch_events, FrameSink, NetConfig, ReaderRoute, HEADER_LEN};
use vire_sim::IngestServer;

pub struct Replay<L: Localizer> {
    route: ReaderRoute,
    front: IngestFrontEnd,
    rings: Vec<IngestFrontEnd>,
    pub zones: Vec<IngestServer<L>>,
    sink: FrameSink,
    scratch: Vec<BeaconEvent>,
    runs: Vec<Vec<BeaconEvent>>,
    /// Localization results: each drive result is one attempt.
    pub ledger: Ledger,
    pub drives: u64,
    pub wire_bytes: u64,
    pub events: u64,
}

impl<L: Localizer> Replay<L> {
    /// Zone pipelines built exactly as `NetServer::from_traces` builds
    /// them with `NetConfig::default()`.
    pub fn new(campus: &Campus, mut localizer: impl FnMut() -> L) -> Self {
        let config = NetConfig::default();
        let zones = campus
            .geometry
            .iter()
            .map(|t| {
                IngestServer::from_trace(t, localizer(), config.serve.clone())
                    .expect("generated geometry is a full lattice")
            })
            .collect();
        Replay {
            route: ReaderRoute::from_zone_sizes(&campus.readers_per_zone),
            front: IngestFrontEnd::new(config.serve.ingest),
            rings: (0..campus.geometry.len())
                .map(|_| IngestFrontEnd::new(config.serve.ingest))
                .collect(),
            zones,
            sink: FrameSink::new(),
            scratch: Vec::new(),
            runs: vec![Vec::new(); campus.geometry.len()],
            ledger: Ledger::default(),
            drives: 0,
            wire_bytes: 0,
            events: 0,
        }
    }

    /// Handles one batch. The frame is encoded first (client-side work,
    /// outside the handling span).
    pub fn batch(&mut self, id: u32, events: &[BeaconEvent], log: Option<&SpanLog>) {
        self.sink.clear();
        self.sink.batch_events(events);
        let frame = self.sink.bytes();
        self.wire_bytes += frame.len() as u64;
        self.events += events.len() as u64;
        let body = &frame[HEADER_LEN..];

        let handling = log.map(|l| l.begin("handle", NONE, id));
        let parent = handling.as_ref().map_or(NONE, |h| h.id());
        let span = |name| log.map(|l| l.begin(name, parent, id));
        let close = |open: Option<crate::trace::Open>, count: usize| {
            if let (Some(l), Some(o)) = (log, open) {
                l.end(o, count as u32, 0);
            }
        };

        let s = span("codec");
        self.scratch.clear();
        let n = decode_batch_events(body, &mut self.scratch).expect("own frame decodes");
        close(s, n);

        let s = span("route");
        let routable = self
            .scratch
            .iter()
            .all(|e| self.route.resolve(e.reader).is_some());
        close(s, n);
        assert!(routable, "generated readers are routable");

        let s = span("front");
        self.front.accept(self.scratch.drain(..));
        let survivors = self.front.drain();
        close(s, n);

        let s = span("route");
        for e in &survivors.readings {
            let (zone, local) = self.route.resolve(e.reader).expect("validated");
            self.runs[zone as usize].push(BeaconEvent {
                reader: local,
                ..*e
            });
        }
        close(s, survivors.readings.len());

        for z in 0..self.runs.len() {
            if self.runs[z].is_empty() {
                continue;
            }
            let s = span("front");
            let k = self.runs[z].len();
            self.rings[z].accept(self.runs[z].drain(..));
            let parked = self.rings[z].drain();
            close(s, k);

            let s = span("accept");
            self.zones[z].accept(parked.readings.iter().copied());
            close(s, parked.readings.len());

            let s = span("drive");
            let drive_id = s.as_ref().map_or(NONE, |o| o.id());
            let report = with_context(drive_id, id, || self.zones[z].drive());
            close(s, report.results.len());
            self.drives += 1;
            for (_, r) in &report.results {
                self.ledger.localize(r.is_ok());
            }
        }
        if let (Some(l), Some(h)) = (log, handling) {
            l.end(h, n as u32, 0);
        }
    }
}
