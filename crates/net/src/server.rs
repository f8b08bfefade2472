//! [`NetServer`]: the listener + thread-per-gateway connection model.
//!
//! ## Connection model
//!
//! One acceptor thread owns the listener; every gateway connection gets
//! its own service thread (the `WorkerPool` idiom of persistent named
//! threads — zone drives performed on a connection thread still fan
//! localization out through [`vire_core::WorkerPool::global`]). Each
//! connection owns its decode state end-to-end: a [`FrameDecoder`], a
//! [`FrameSink`], and reusable per-zone routing buffers, so the steady
//! state allocates nothing.
//!
//! ## One hop from socket to smoothing
//!
//! A `BATCH` frame is decoded, **validated** (finite time and RSSI —
//! [`vire_core::validate_event`], the same rule for both encodings — and
//! a routable reader for every event; any failure rejects the whole frame
//! before anything is accepted), then **routed** by campus-frame reader
//! id ([`ReaderRoute`]: contiguous global id blocks, one per zone) into
//! that zone's shard: a mutex-guarded, lossless staging buffer
//! ([`vire_core::IngestFrontEnd`]) in front of an [`IngestServer`]
//! pipeline behind a `RwLock`. The routing thread appends to the buffer
//! (short critical section), then *tries* to take the zone's drive lock:
//! the driver swaps the buffer out, smooths every staged reading in
//! arrival order, and drives the location service. If another gateway is
//! already driving the zone, the readings wait in the buffer for that (or
//! the next) driver. Nothing on the way merges, drops or reorders a
//! reading. Queries take the zone's read lock: they run concurrently with
//! each other and only wait out an actual drive of the same zone.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] flips the stop latch, joins the acceptor and
//! every connection thread (each drains frames already buffered before
//! exiting), then drives every zone so its staging buffer is empty and
//! the final [`NetStats`] is exactly balanced.

use crate::codec::{
    decode_batch_events, decode_hello, decode_query, BatchAck, Encoding, FrameDecoder, FrameKind,
    FrameSink, HelloOk, MAX_FRAME_LEN,
};
use crate::NetStats;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use vire_core::{
    ingest::parse_wire_versioned, validate_event, BeaconEvent, IngestFrontEnd, Localizer,
};
use vire_sim::trace::TraceError;
use vire_sim::{IngestServer, ServeConfig, SlotStats, Trace};

/// Serving-fabric configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Zone staging-buffer shape, location-service and smoothing tuning
    /// per zone.
    pub serve: ServeConfig,
    /// Ceiling on one frame's body length (a bad length prefix above it
    /// is a protocol error, never an allocation).
    pub max_frame_len: usize,
    /// How often blocked reads wake to check the stop latch.
    pub poll_interval: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            serve: ServeConfig::default(),
            max_frame_len: MAX_FRAME_LEN,
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// Why a server failed to stand up.
#[derive(Debug)]
pub enum ServerError {
    /// Socket-level failure (bind, listen, thread spawn).
    Io(io::Error),
    /// A zone trace's deployment metadata was unusable.
    Trace(TraceError),
    /// No zone traces were supplied.
    NoZones,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "socket error: {e}"),
            ServerError::Trace(e) => write!(f, "zone trace error: {e}"),
            ServerError::NoZones => write!(f, "a deployment needs at least one zone trace"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<TraceError> for ServerError {
    fn from(e: TraceError) -> Self {
        ServerError::Trace(e)
    }
}

/// Campus-frame reader routing: global reader ids are contiguous blocks,
/// one block per zone in deployment order (zone 0 owns `0..n₀`, zone 1
/// owns `n₀..n₀+n₁`, …). Resolving a global id yields the owning zone
/// and the reader's zone-local id — the same campus→zone frame mapping
/// `MultiZoneTestbed` uses for tags.
#[derive(Debug, Clone)]
pub struct ReaderRoute {
    /// `starts[z]` = first global id of zone `z`, plus one sentinel
    /// holding the total, so `starts.windows(2)` brackets every zone.
    starts: Vec<u32>,
}

impl ReaderRoute {
    /// A route over per-zone reader counts, in deployment order.
    pub fn from_zone_sizes(sizes: &[usize]) -> Self {
        let mut starts = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0u32;
        starts.push(0);
        for &n in sizes {
            acc += n as u32;
            starts.push(acc);
        }
        ReaderRoute { starts }
    }

    /// Zone count.
    pub fn zones(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total routable readers across the campus.
    pub fn readers(&self) -> u32 {
        *self.starts.last().expect("route always has a sentinel")
    }

    /// First global reader id owned by `zone`.
    pub fn zone_base(&self, zone: usize) -> u32 {
        self.starts[zone]
    }

    /// Resolves a global reader id to `(zone, zone-local reader id)`;
    /// `None` for ids outside every zone's block.
    pub fn resolve(&self, global: u32) -> Option<(u32, u32)> {
        // Zones are few (single digits); a linear scan beats a binary
        // search's branch misses and needs no per-event setup.
        let zone = self
            .starts
            .windows(2)
            .position(|w| (w[0]..w[1]).contains(&global))?;
        Some((zone as u32, global - self.starts[zone]))
    }
}

/// One zone's shard: the staging buffer routed readings wait in, and
/// the pipeline that smooths and localizes them. Buffer and pipeline are
/// locked independently, so routing (a short append) never waits on a
/// drive in progress.
struct ZoneShard<L: Localizer> {
    staged: Mutex<IngestFrontEnd>,
    pipeline: RwLock<IngestServer<L>>,
}

/// State shared by the acceptor, every connection thread, and the
/// owning [`NetServer`] handle.
struct Shared<L: Localizer> {
    zones: Vec<ZoneShard<L>>,
    route: ReaderRoute,
    config: NetConfig,
    stop: AtomicBool,
    accepted: AtomicU64,
    protocol_errors: AtomicU64,
    accept_errors: AtomicU64,
    connections: AtomicU64,
    frames: AtomicU64,
    queries: AtomicU64,
}

impl<L: Localizer> Shared<L> {
    // Lock recovery: a connection thread that panics mid-drive is its
    // own failure domain — it closes one socket. Poisoning must never
    // wedge the shared zone, so every guard recovers via `into_inner`.

    fn pipeline_write(&self, zone: usize) -> RwLockWriteGuard<'_, IngestServer<L>> {
        self.zones[zone]
            .pipeline
            .write()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn pipeline_read(&self, zone: usize) -> std::sync::RwLockReadGuard<'_, IngestServer<L>> {
        self.zones[zone]
            .pipeline
            .read()
            .unwrap_or_else(|e| e.into_inner())
    }

    fn staged_lock(&self, zone: usize) -> std::sync::MutexGuard<'_, IngestFrontEnd> {
        self.zones[zone]
            .staged
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Smooths everything staged for `zone` into a held pipeline guard
    /// and drives it. The staging lock is taken *after* the pipeline lock
    /// and only to swap buffers — append-side threads never queue behind
    /// smoothing or localization work.
    fn drive_zone(&self, zone: usize, pipe: &mut IngestServer<L>) {
        let batch = self.staged_lock(zone).drain();
        pipe.accept(batch.readings.iter().copied());
        self.staged_lock(zone).recycle(batch);
        pipe.drive();
    }

    /// Drives every zone so no reading is left staged and the accounting
    /// identity holds exactly.
    fn flush_all(&self) {
        for z in 0..self.zones.len() {
            let mut pipe = self.pipeline_write(z);
            self.drive_zone(z, &mut pipe);
        }
    }

    /// The fabric ledger: events accepted from frames against events
    /// smoothed by the zone pipelines.
    fn stats(&self) -> NetStats {
        let mut s = NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            connections: self.connections.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            ..NetStats::default()
        };
        for z in 0..self.zones.len() {
            s.delivered += self.pipeline_read(z).ingest_stats().delivered;
        }
        s
    }
}

/// The TCP serving fabric. See the [module docs](self).
pub struct NetServer<L: Localizer + Send + 'static> {
    shared: Arc<Shared<L>>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl<L: Localizer + Send + 'static> std::fmt::Debug for NetServer<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("zones", &self.shared.zones.len())
            .finish()
    }
}

impl<L: Localizer + Send + 'static> NetServer<L> {
    /// Binds `addr` and stands up one zone pipeline per trace (geometry
    /// only — readings stream in over connections). `localizer(zone)`
    /// supplies each zone's kernel; the reader route assigns each zone a
    /// contiguous global reader-id block in trace order.
    pub fn from_traces(
        addr: impl ToSocketAddrs,
        traces: &[Trace],
        mut localizer: impl FnMut(usize) -> L,
        config: NetConfig,
    ) -> Result<Self, ServerError> {
        if traces.is_empty() {
            return Err(ServerError::NoZones);
        }
        let mut zones = Vec::with_capacity(traces.len());
        let mut sizes = Vec::with_capacity(traces.len());
        for (z, trace) in traces.iter().enumerate() {
            sizes.push(trace.readers.len());
            zones.push(ZoneShard {
                staged: Mutex::new(IngestFrontEnd::new(config.serve.ingest)),
                pipeline: RwLock::new(IngestServer::from_trace(
                    trace,
                    localizer(z),
                    config.serve.clone(),
                )?),
            });
        }
        let route = ReaderRoute::from_zone_sizes(&sizes);
        Self::bind(addr, zones, route, config)
    }

    fn bind(
        addr: impl ToSocketAddrs,
        zones: Vec<ZoneShard<L>>,
        route: ReaderRoute,
        config: NetConfig,
    ) -> Result<Self, ServerError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            zones,
            route,
            config,
            stop: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("vire-net-accept".into())
                .spawn(move || accept_loop(listener, shared, conns))
                .map_err(ServerError::Io)?
        };
        Ok(NetServer {
            shared,
            addr,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Zone count.
    pub fn zones(&self) -> usize {
        self.shared.zones.len()
    }

    /// The campus-frame reader route.
    pub fn route(&self) -> &ReaderRoute {
        &self.shared.route
    }

    /// A live accounting snapshot (may be transiently unbalanced while
    /// readings are staged for a zone's next drive — see
    /// [`NetStats::balanced`]).
    pub fn stats(&self) -> NetStats {
        self.shared.stats()
    }

    /// Slot takeovers and readings the zones' smoothing tables rejected,
    /// by reason, summed over every zone.
    pub fn slot_stats(&self) -> SlotStats {
        (0..self.shared.zones.len())
            .map(|z| self.shared.pipeline_read(z).slot_stats())
            .fold(SlotStats::default(), |a, b| a + b)
    }

    /// Stops accepting, joins every connection thread (each drains what
    /// it already buffered), drives every zone's staged readings, and
    /// returns the final — exactly balanced — accounting.
    pub fn shutdown(mut self) -> NetStats {
        self.stop()
    }

    /// [`NetServer::shutdown`] in place, so the drained server can still
    /// be inspected ([`NetServer::slot_stats`]). Idempotent.
    pub fn stop(&mut self) -> NetStats {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The acceptor was the only pusher and it has exited; drain the
        // handle list it left behind.
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.conns.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
        self.shared.flush_all();
        self.shared.stats()
    }
}

impl<L: Localizer + Send + 'static> Drop for NetServer<L> {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.stop();
        }
    }
}

fn accept_loop<L: Localizer + Send + 'static>(
    listener: TcpListener,
    shared: Arc<Shared<L>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    let mut next_id = 0u64;
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                let id = next_id;
                next_id += 1;
                let spawned = std::thread::Builder::new()
                    .name(format!("vire-net-conn-{id}"))
                    .spawn(move || serve_conn(&shared, stream));
                if let Ok(h) = spawned {
                    conns.lock().unwrap_or_else(|e| e.into_inner()).push(h);
                }
            }
            // The listener is non-blocking, so WouldBlock is the normal
            // idle tick. Anything else — EMFILE, a dead listener — is a
            // real failure: count it so a stats snapshot surfaces a
            // listener that has silently stopped admitting gateways,
            // then back off so a persistent error cannot spin hot.
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.poll_interval)
            }
            Err(_) => {
                shared.accept_errors.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(shared.config.poll_interval);
            }
        }
    }
}

/// Why one connection's serve loop ended. `Protocol` is the only ending
/// counted against the gateway.
enum ConnEnd {
    /// `BYE` handshake completed, or peer closed on a frame boundary,
    /// or the server drained and shut down.
    Clean,
    /// The peer violated the protocol (codec, wire, or routing error).
    Protocol,
    /// Transport-level I/O error mid-stream.
    Io,
}

/// Per-connection mutable state *other than* the decoder — split out so
/// a frame body borrowed from the decoder can be handled while this
/// half is mutated. Everything here is reused across frames, so the
/// steady state allocates nothing.
struct ConnState {
    sink: FrameSink,
    /// Decoded-but-unrouted events for the frame in flight.
    scratch: Vec<BeaconEvent>,
    /// Per-zone runs (zone-local reader ids) for the frame in flight.
    runs: Vec<Vec<BeaconEvent>>,
    encoding: Option<Encoding>,
    /// The wire version pinned at `HELLO`. A JSON batch whose payload
    /// claims a *newer* version than the connection negotiated is a
    /// protocol error; older payloads are accepted (the version gate is
    /// a feature ceiling, and existing traces must replay unchanged).
    wire_version: u32,
}

fn serve_conn<L: Localizer>(shared: &Shared<L>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let mut decoder = FrameDecoder::new(shared.config.max_frame_len);
    let mut st = ConnState {
        sink: FrameSink::new(),
        scratch: Vec::new(),
        runs: (0..shared.zones.len()).map(|_| Vec::new()).collect(),
        encoding: None,
        wire_version: vire_core::ingest::WIRE_VERSION,
    };
    let end = conn_loop(shared, &mut stream, &mut decoder, &mut st);
    if matches!(end, ConnEnd::Protocol) {
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
    let _ = stream.flush();
    // Dropping the stream closes only this gateway's connection; the
    // shared zone state was only ever touched through recovered locks.
}

fn conn_loop<L: Localizer>(
    shared: &Shared<L>,
    stream: &mut TcpStream,
    decoder: &mut FrameDecoder,
    st: &mut ConnState,
) -> ConnEnd {
    loop {
        // Drain every complete frame already buffered before reading
        // again — on shutdown this is what "drain in-flight frames"
        // means: everything the gateway got onto the wire is processed.
        loop {
            let frame = match decoder.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => return ConnEnd::Protocol,
            };
            shared.frames.fetch_add(1, Ordering::Relaxed);
            match handle_frame(shared, st, frame.kind, frame.body) {
                Ok(done) => {
                    if st.sink.flush_to(stream).is_err() {
                        return ConnEnd::Io;
                    }
                    if done {
                        return ConnEnd::Clean;
                    }
                }
                Err(()) => {
                    let _ = st.sink.flush_to(stream);
                    return ConnEnd::Protocol;
                }
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            return ConnEnd::Clean;
        }
        match decoder.read_from(stream) {
            Ok(0) => {
                return match decoder.finish() {
                    Ok(()) => ConnEnd::Clean,
                    Err(_) => ConnEnd::Protocol,
                };
            }
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Timeout tick: loop back around to check the stop latch.
            }
            Err(_) => return ConnEnd::Io,
        }
    }
}

/// Handles one frame. `Ok(true)` ends the connection cleanly (`BYE`);
/// `Err(())` is a protocol violation (the caller counts and closes).
fn handle_frame<L: Localizer>(
    shared: &Shared<L>,
    st: &mut ConnState,
    kind: FrameKind,
    body: &[u8],
) -> Result<bool, ()> {
    // HELLO must come first and exactly once.
    match (st.encoding, kind) {
        (None, FrameKind::Hello) => {
            let hello = decode_hello(body).map_err(|_| ())?;
            st.encoding = Some(hello.encoding);
            st.wire_version = hello.wire_version;
            st.sink.hello_ok(HelloOk {
                wire_version: hello.wire_version,
                encoding: hello.encoding,
                zones: shared.zones.len() as u32,
            });
            return Ok(false);
        }
        (None, _) | (Some(_), FrameKind::Hello) => return Err(()),
        _ => {}
    }
    match kind {
        FrameKind::Batch => handle_batch(shared, st, body).map(|()| false),
        FrameKind::Query => {
            let q = decode_query(body).map_err(|_| ())?;
            let zone = q.zone as usize;
            if zone >= shared.zones.len() {
                return Err(());
            }
            let resp = shared.pipeline_read(zone).query(q.query);
            shared.queries.fetch_add(1, Ordering::Relaxed);
            st.sink.location(&resp);
            Ok(false)
        }
        FrameKind::Stats => {
            shared.flush_all();
            st.sink.stats_ok(shared.stats());
            Ok(false)
        }
        FrameKind::Bye => {
            st.sink.bye_ok();
            Ok(true)
        }
        // Server→client kinds arriving at the server are violations.
        _ => Err(()),
    }
}

/// Decodes, validates, routes, stages, and drives one batch frame.
fn handle_batch<L: Localizer>(
    shared: &Shared<L>,
    st: &mut ConnState,
    body: &[u8],
) -> Result<(), ()> {
    st.scratch.clear();
    match st.encoding.expect("checked by caller") {
        Encoding::Binary => {
            decode_batch_events(body, &mut st.scratch).map_err(|_| ())?;
        }
        Encoding::Json => {
            let json = std::str::from_utf8(body).map_err(|_| ())?;
            let (version, events) = parse_wire_versioned(json).map_err(|_| ())?;
            // The HELLO-pinned wire version is a ceiling: a connection
            // that negotiated v1 must not smuggle v2 payloads past the
            // handshake. Older payloads stay accepted — traces recorded
            // at earlier versions replay unchanged on a current client.
            if version > st.wire_version {
                return Err(());
            }
            st.scratch.extend(events);
        }
    }
    // Validate the whole frame *before* accepting any of it, with one
    // rule for both encodings: a protocol error never strands accepted
    // events, and no NaN ever reaches a smoothing window.
    for (index, e) in st.scratch.iter().enumerate() {
        validate_event(index, e).map_err(|_| ())?;
        if shared.route.resolve(e.reader).is_none() {
            return Err(());
        }
    }
    let accepted = st.scratch.len();
    // Counted before staging, so a concurrent STATS never sees more
    // delivered than accepted.
    shared
        .accepted
        .fetch_add(accepted as u64, Ordering::Relaxed);

    for e in st.scratch.drain(..) {
        let (zone, local) = shared.route.resolve(e.reader).expect("validated");
        st.runs[zone as usize].push(BeaconEvent { reader: local, ..e });
    }
    let mut drove = true;
    for zone in 0..st.runs.len() {
        if st.runs[zone].is_empty() {
            continue;
        }
        // Stage the readings (short critical section; never held while
        // driving)…
        shared.staged_lock(zone).accept(st.runs[zone].drain(..));
        // …then try to become the zone's driver. Losing the race is
        // fine: the current driver (or the next) smooths what is staged.
        match shared.zones[zone].pipeline.try_write() {
            Ok(mut pipe) => shared.drive_zone(zone, &mut pipe),
            Err(std::sync::TryLockError::Poisoned(e)) => {
                shared.drive_zone(zone, &mut e.into_inner());
            }
            Err(std::sync::TryLockError::WouldBlock) => drove = false,
        }
    }
    st.sink.batch_ok(BatchAck {
        accepted: accepted as u32,
        survivors: accepted as u32,
        coalesced: 0,
        lagged: 0,
        drove,
    });
    Ok(())
}
