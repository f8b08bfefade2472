//! The serving session: the shipping stack (`NetServer::from_traces`,
//! `Vire::default()`, `NetConfig::default()`) on loopback, driven by one
//! load-generator process over two connections — one gateway connection
//! carrying every zone's readings, one query connection.
//!
//! Phases, in order, on one campus stream:
//!
//! 1. **Set-up**: the `from_traces` call, then (once both connections
//!    are admitted) batches streamed stop-and-wait with one tracking tag
//!    per zone probed after each ack, until every zone answers `Fresh`
//!    (its calibration map is complete and a fix is queryable). The
//!    connection admission in between is not timed: it races the
//!    acceptor's first poll and would make the figure bimodal. This server
//!    stays up; [`setups`] times more set-ups on throwaway servers, one
//!    at a time, before and after the session.
//! 2. [`ROUNDS`] rounds, each a **closed-loop ingest** slice (a fixed
//!    stream segment, a fixed pipelining window, no queries, so every
//!    batch drives), a **closed-loop query** slice (a fixed window of
//!    `QUERY`s in flight at the workload's mix, the gateway idle: the
//!    query capacity), and then an **open-loop** slice (batches sent on
//!    the workload's fixed schedule while the query connection sends
//!    `QUERY`s on a fixed schedule of its own, on a second thread; latency
//!    is timed from the scheduled send). Timings are kept per piece
//!    (closed-loop piece, open-loop window) so the report can read them at
//!    the quiet end of the run: a stall of the shared host moves some
//!    pieces, not the figure.
//! 3. After the first closed-loop ingest slice, the **correctness
//!    oracle**: `STATS` must balance with nothing lost, and the served
//!    answer of every tag lifetime streamed so far is kept; [`verify`]
//!    later checks each is `to_bits`-identical to an in-process replay of
//!    the same batches with one drive per batch. At the end, `STATS` must
//!    balance again with every event sent accounted for.
//!
//! Every per-sample record of the session is allocated and made resident
//! by [`Session::new`], before the first server is built, so the memory
//! the session adds is the server's. The session reads the process's
//! anonymous resident memory at the end of every phase and keeps the
//! largest reading.

use crate::conn::{Conn, Reply};
use crate::gen::{Campus, Rng};
use crate::replay::Replay;
use crate::stats::{open_loop_latency, AckRecord, Answer, Ledger};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use vire_core::{Localizer, LocationQuery, QueryResponse, TagKey, Vire};
use vire_net::{NetConfig, NetServer, NetStats};

/// Closed-loop/open-loop rounds per run.
pub const ROUNDS: usize = 5;

/// Timed pieces of each round's closed-loop ingest slice.
pub const CLOSED_PIECES: usize = 6;

/// Batches in flight in the closed loop.
pub const CLOSED_WINDOW: usize = 8;

/// Timed pieces of each round's closed-loop query slice, and the `QUERY`s
/// in each.
pub const QUERY_PIECES: usize = 3;
const QUERY_PIECE: usize = 3_000;

/// `QUERY`s in flight in the closed loop.
pub const QUERY_WINDOW: usize = 16;

/// Set-up may stream at most this many batches before a fix is due.
const WARM_BATCHES_MAX: usize = 600;

/// A lifetime counts as streamed and driven once it has been beaconing
/// this many stream seconds (five 2 s beacons) before the query time.
const SETTLE_S: f64 = 10.0;

/// Retired lifetimes are queried only this long after they died, so the
/// service's tombstone for the slot still holds them.
const RETIRED_WINDOW_S: f64 = 60.0;

/// The service keeps one tombstone per slot, so a retired lifetime is
/// queried only while its successor will outlive the query time by this
/// much stream time: the gateway connection may run ahead of the query
/// connection (two seconds of wall time under a stall at `query_churn`'s
/// 50× compression), and the slot must not churn again before the query
/// is answered.
const CHURN_MARGIN_S: f64 = 100.0;

/// The query mix; the remainder asks about never-seen lifetimes.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub live: f64,
    pub retired: f64,
}

/// How one run loads the stack, per round.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Closed-loop stream seconds per round.
    pub closed_stream_s: f64,
    /// Open-loop wall seconds per round.
    pub open_s: f64,
    /// Stream seconds sent per wall second in the open loop.
    pub compression: f64,
    /// Queries per wall second in the open loop.
    pub query_rate: f64,
    pub mix: Mix,
}

impl Load {
    /// Batches the open loop sends per round, at most.
    pub fn open_batches(&self, batch_dt: f64) -> usize {
        (self.open_s * self.compression / batch_dt).ceil() as usize + 2
    }

    /// `QUERY`s the open loop sends per round.
    pub fn open_queries(&self) -> usize {
        (self.open_s * self.query_rate).ceil() as usize + 1
    }
}

/// The gateway thread's record of one open-loop slice.
#[derive(Debug, Default)]
pub struct GatewaySide {
    /// Acks in send order.
    pub acks: Vec<AckRecord>,
    /// Stream index and RTT from the actual send, per ack.
    pub ack_batch: Vec<u32>,
    pub ack_rtt_s: Vec<f64>,
    /// Actual minus scheduled send time, per send in order.
    pub late_s: Vec<f64>,
    pub ledger: Ledger,
    /// Batches sent and not yet acked: stream index, due and send times.
    pending: VecDeque<(usize, f64, f64)>,
}

/// The query thread's record of one open-loop slice.
#[derive(Debug, Default)]
pub struct QuerySide {
    pub rtt_s: Vec<f64>,
    /// Actual minus scheduled send time, per send in order.
    pub late_s: Vec<f64>,
    /// Distance to the true position, per `Fresh` answer about a live tag.
    pub fix_error_m: Vec<f64>,
    pub ledger: Ledger,
    /// The first few failed queries, for the run's notes.
    pub failures: Vec<String>,
    /// Queries sent and not yet answered: due time, stream time asked
    /// about, target.
    pending: VecDeque<(f64, f64, Target)>,
}

/// One round's open-loop slice.
#[derive(Debug, Default)]
pub struct OpenSlice {
    pub gateway: GatewaySide,
    pub queries: QuerySide,
}

/// An empty vector whose `n`-element buffer is already resident: every
/// element is written once (`fill` must not be zero, or the allocator may
/// hand out untouched zero pages) and `black_box` keeps the writes.
fn resident<T: Clone>(n: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, fill);
    std::hint::black_box(&mut v);
    v.clear();
    v
}

/// Everything one serving session measured.
#[derive(Debug, Default)]
pub struct Session {
    pub setup_s: Vec<f64>,
    /// Batches each set-up streamed before every zone answered `Fresh`
    /// (the same stream prefix every time).
    pub setup_batches: usize,
    /// Closed-loop events per second, per timed piece
    /// ([`CLOSED_PIECES`] per round).
    pub ingest_rate: Vec<f64>,
    /// Closed-loop `QUERY`s per second, per timed piece
    /// ([`QUERY_PIECES`] per round).
    pub query_rate: Vec<f64>,
    pub open: Vec<OpenSlice>,
    /// The oracle's served answers: lifetime index and answer, all asked
    /// about stream time `served_at`.
    pub served: Vec<(usize, QueryResponse)>,
    pub served_at: f64,
    /// The largest `RssAnon` read at a phase end, MB.
    pub anon_peak_mb: f64,
    pub ledger: Ledger,
    pub final_stats: NetStats,
    /// Stream batches sent in total.
    pub batches_sent: usize,
    /// Stream batches sent before the oracle compared states.
    pub oracle_batches: usize,
    pub failures: Vec<String>,
    /// Failed operations worth naming (they count in the ledger, not as
    /// failed checks).
    pub notes: Vec<String>,
}

impl Session {
    /// A session whose per-sample records are allocated and resident for
    /// `load` on `campus`.
    pub fn new(campus: &Campus, load: &Load) -> Session {
        let batch_dt = campus.cycle_s / campus.batches.len() as f64;
        let batches = load.open_batches(batch_dt);
        let queries = load.open_queries();
        let ack = AckRecord {
            scheduled: 1.0,
            acked: 1.0,
            drove: true,
        };
        let open = (0..ROUNDS)
            .map(|_| OpenSlice {
                gateway: GatewaySide {
                    acks: resident(batches, ack),
                    ack_batch: resident(batches, 1),
                    ack_rtt_s: resident(batches, 1.0),
                    late_s: resident(batches, 1.0),
                    ledger: Ledger::default(),
                    // Room for every send of the slice, so a stalled
                    // server grows no load-generator queue.
                    pending: resident(batches, (1, 1.0, 1.0)).into(),
                },
                queries: QuerySide {
                    rtt_s: resident(queries, 1.0),
                    late_s: resident(queries, 1.0),
                    fix_error_m: resident(queries, 1.0),
                    pending: resident(queries, (1.0, 1.0, Target::Never)).into(),
                    ..QuerySide::default()
                },
            })
            .collect();
        Session {
            setup_s: resident(64, 1.0),
            ingest_rate: resident(ROUNDS * CLOSED_PIECES, 1.0),
            query_rate: resident(ROUNDS * QUERY_PIECES, 1.0),
            open,
            served: Vec::with_capacity(campus.lifetimes.len()),
            ..Session::default()
        }
    }

    /// Reads the anonymous resident memory and keeps the largest reading.
    /// Anonymous memory only: file-backed pages (the program's code) may
    /// be evicted and faulted back in at any time.
    fn sample_memory(&mut self) {
        self.anon_peak_mb = self.anon_peak_mb.max(status_mb("RssAnon:"));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Every open-loop fix error, pooled over rounds (accuracy does not
    /// depend on host timing).
    pub fn fix_errors(&self) -> Vec<f64> {
        self.open
            .iter()
            .flat_map(|r| r.queries.fix_error_m.iter().copied())
            .collect()
    }
}

/// A `kB` field of `/proc/self/status` (`RssAnon:`, `VmHWM:`), in MB;
/// NaN when it cannot be read.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn io<T>(r: std::io::Result<T>) -> Result<T, String> {
    r.map_err(|e| format!("transport: {e}"))
}

/// Bit-level equality of two answers.
pub fn same_answer(a: &QueryResponse, b: &QueryResponse) -> bool {
    let bits = |v: f64| v.to_bits();
    match (a, b) {
        (
            QueryResponse::Fresh {
                position: p,
                velocity: v,
                sigma: s,
                age: g,
            },
            QueryResponse::Fresh {
                position: q,
                velocity: w,
                sigma: t,
                age: h,
            },
        ) => {
            bits(p.x) == bits(q.x)
                && bits(p.y) == bits(q.y)
                && bits(v.x) == bits(w.x)
                && bits(v.y) == bits(w.y)
                && bits(s.0) == bits(t.0)
                && bits(s.1) == bits(t.1)
                && bits(*g) == bits(*h)
        }
        (
            QueryResponse::Stale {
                position: p,
                age: g,
            },
            QueryResponse::Stale {
                position: q,
                age: h,
            },
        ) => bits(p.x) == bits(q.x) && bits(p.y) == bits(q.y) && bits(*g) == bits(*h),
        (QueryResponse::Unknown, QueryResponse::Unknown) => true,
        _ => false,
    }
}

fn answer(r: &QueryResponse) -> Answer {
    match r {
        QueryResponse::Fresh { .. } => Answer::Fresh,
        QueryResponse::Stale { .. } => Answer::Stale,
        QueryResponse::Unknown => Answer::Unknown,
    }
}

/// Per zone, the longest-lived lifetime present from the start: the tag
/// whose first `Fresh` answer marks the zone as serving.
fn probes(campus: &Campus) -> Vec<TagKey> {
    (0..campus.geometry.len() as u32)
        .map(|z| {
            campus
                .lifetimes
                .iter()
                .filter(|l| l.zone == z && l.born == 0.0)
                .max_by(|a, b| a.died.total_cmp(&b.died))
                .expect("every zone starts with tracking tags")
                .key
        })
        .collect()
}

/// A stood-up server with both connections open.
pub struct Stack<L: Localizer + Send + 'static> {
    pub server: NetServer<L>,
    pub gateway: Conn,
    pub queries: Conn,
    /// Batches the set-up consumed.
    pub next: usize,
}

/// One set-up: returns the stack and the set-up seconds.
fn stand_up<L: Localizer + Send + 'static>(
    campus: &Campus,
    localizer: &mut impl FnMut() -> L,
    ledger: &mut Ledger,
) -> Result<(Stack<L>, f64), String> {
    let probe = probes(campus);
    let t0 = Instant::now();
    let server = NetServer::from_traces(
        "127.0.0.1:0",
        &campus.geometry,
        |_| localizer(),
        NetConfig::default(),
    )
    .map_err(|e| format!("server: {e}"))?;
    let built = t0.elapsed().as_secs_f64();
    let addr: SocketAddr = server.local_addr();
    let mut gateway = io(Conn::open(addr))?;
    let mut queries = io(Conn::open(addr))?;
    io(gateway.handshake())?;
    io(queries.handshake())?;
    let t1 = Instant::now();
    let mut ready = vec![false; probe.len()];
    let mut next = 0;
    let mut events = Vec::new();
    while ready.iter().any(|r| !r) {
        if next >= WARM_BATCHES_MAX {
            return Err("no fix after the set-up allowance of the stream".into());
        }
        campus.batch_into(next, &mut events);
        io(gateway.send_batch(&events))?;
        let ack = io(gateway.recv_ack())?;
        ledger.batch(false, ack.lagged);
        for (z, key) in probe.iter().enumerate() {
            if !ready[z] {
                let q = LocationQuery {
                    tag: *key,
                    at: campus.until(next),
                };
                ready[z] = matches!(io(queries.query(z as u32, q))?, QueryResponse::Fresh { .. });
            }
        }
        next += 1;
    }
    let setup = built + t1.elapsed().as_secs_f64();
    Ok((
        Stack {
            server,
            gateway,
            queries,
            next,
        },
        setup,
    ))
}

/// Closes both connections and shuts the server down; its accounting
/// must balance.
fn shut_down<L: Localizer + Send + 'static>(
    stack: Stack<L>,
    s: &mut Session,
) -> Result<NetStats, String> {
    io(stack.gateway.bye())?;
    io(stack.queries.bye())?;
    let stats = stack.server.shutdown();
    s.check(stats.balanced(), || {
        format!("shutdown accounting unbalanced: {stats}")
    });
    Ok(stats)
}

/// Streams `range` closed loop with [`CLOSED_WINDOW`] batches in flight.
/// Returns (events, seconds, drove:false acks).
fn closed_loop(
    gateway: &mut Conn,
    campus: &Campus,
    range: std::ops::Range<usize>,
    ledger: &mut Ledger,
) -> Result<(u64, f64, u64), String> {
    let mut in_flight = 0usize;
    let mut events = 0u64;
    let mut parked = 0u64;
    let mut buf = Vec::new();
    let mut on_ack = |ack: vire_net::BatchAck, parked: &mut u64| {
        ledger.batch(false, ack.lagged);
        if !ack.drove {
            *parked += 1;
        }
    };
    let t = Instant::now();
    for b in range {
        campus.batch_into(b, &mut buf);
        io(gateway.send_batch(&buf))?;
        events += buf.len() as u64;
        in_flight += 1;
        while in_flight >= CLOSED_WINDOW {
            on_ack(io(gateway.recv_ack())?, &mut parked);
            in_flight -= 1;
        }
    }
    while in_flight > 0 {
        on_ack(io(gateway.recv_ack())?, &mut parked);
        in_flight -= 1;
    }
    Ok((events, t.elapsed().as_secs_f64(), parked))
}

/// What the query thread expects of one target.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Target {
    /// A live lifetime; `settled` when streamed and driven.
    Live {
        lifetime: usize,
        settled: bool,
    },
    Retired {
        lifetime: usize,
    },
    Never,
}

impl Target {
    /// Whether an `Unknown` answer about this target is a failure.
    fn settled(&self) -> bool {
        matches!(
            self,
            Target::Live { settled: true, .. } | Target::Retired { .. }
        )
    }
}

/// Picks a query target at stream time `at` under `mix`.
fn pick(rng: &mut Rng, campus: &Campus, at: f64, mix: Mix) -> (u32, TagKey, Target) {
    let r = rng.unit();
    let slot = &campus.slots[rng.below(campus.slots.len())];
    // The slot's lifetime live at `at` (or the last one born before it).
    let k = slot
        .partition_point(|&i| campus.lifetimes[i].born <= at)
        .max(1)
        - 1;
    let current = &campus.lifetimes[slot[k]];
    if r < mix.live || (r < mix.live + mix.retired && k == 0) {
        let settled = current.born <= at - SETTLE_S && current.live_at(at);
        return (
            current.zone,
            current.key,
            Target::Live {
                lifetime: slot[k],
                settled,
            },
        );
    }
    if r < mix.live + mix.retired {
        let prev = &campus.lifetimes[slot[k - 1]];
        if prev.died >= at - RETIRED_WINDOW_S && current.died > at + CHURN_MARGIN_S {
            let target = Target::Retired {
                lifetime: slot[k - 1],
            };
            return (prev.zone, prev.key, target);
        }
    }
    let zone = rng.below(campus.geometry.len()) as u32;
    (
        zone,
        TagKey::new(1_000_000 + rng.below(1_000) as u32, 0),
        Target::Never,
    )
}

/// Sends `QUERY_PIECE` queries about stream time `at` under `mix`, with
/// [`QUERY_WINDOW`] in flight, while the gateway is idle. Returns the
/// seconds they took.
fn closed_queries(
    conn: &mut Conn,
    campus: &Campus,
    at: f64,
    mix: Mix,
    rng: &mut Rng,
    ledger: &mut Ledger,
) -> Result<f64, String> {
    let mut in_flight: VecDeque<Target> = VecDeque::with_capacity(QUERY_WINDOW);
    let mut sent = 0;
    let t = Instant::now();
    while sent < QUERY_PIECE || !in_flight.is_empty() {
        if sent < QUERY_PIECE && in_flight.len() < QUERY_WINDOW {
            let (zone, tag, target) = pick(rng, campus, at, mix);
            io(conn.send_query(zone, LocationQuery { tag, at }))?;
            in_flight.push_back(target);
            sent += 1;
            continue;
        }
        match io(conn.recv())? {
            Reply::Location(resp) => {
                let target = in_flight.pop_front().ok_or("unsolicited LOCATION")?;
                ledger.query(answer(&resp), target.settled());
            }
            other => return Err(format!("query connection got {other:?}")),
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

fn query_loop(
    conn: &mut Conn,
    campus: &Campus,
    load: &Load,
    rng: &mut Rng,
    t0: Instant,
    stream_now: &AtomicU64,
    out: &mut QuerySide,
) -> Result<(), String> {
    let period = 1.0 / load.query_rate;
    let mut i = 0u64;
    loop {
        let due = i as f64 * period;
        let scheduling = due < load.open_s;
        let now = t0.elapsed().as_secs_f64();
        if scheduling && now >= due {
            let at = f64::from_bits(stream_now.load(Ordering::Acquire));
            let (zone, tag, target) = pick(rng, campus, at, load.mix);
            io(conn.send_query(zone, LocationQuery { tag, at }))?;
            out.late_s.push(t0.elapsed().as_secs_f64() - due);
            out.pending.push_back((due, at, target));
            i += 1;
            continue;
        }
        if !scheduling && out.pending.is_empty() {
            return Ok(());
        }
        let deadline = if scheduling {
            t0 + Duration::from_secs_f64(due)
        } else {
            Instant::now() + Duration::from_secs(30)
        };
        match io(conn.recv_until(Some(deadline)))? {
            None if !scheduling => return Err("query replies stopped arriving".into()),
            None => {}
            Some(Reply::Location(resp)) => {
                let done = t0.elapsed().as_secs_f64();
                let (due, at, target) = out.pending.pop_front().ok_or("unsolicited LOCATION")?;
                out.rtt_s.push(open_loop_latency(due, done));
                let before = out.ledger.failed;
                out.ledger.query(answer(&resp), target.settled());
                if out.ledger.failed > before && out.failures.len() < 5 {
                    out.failures.push(format!(
                        "query at stream {at}: {target:?} answered {resp:?}"
                    ));
                }
                if let (Target::Live { lifetime, .. }, QueryResponse::Fresh { position, .. }) =
                    (target, &resp)
                {
                    out.fix_error_m
                        .push(position.distance(campus.position(lifetime, at)));
                }
            }
            Some(other) => return Err(format!("query connection got {other:?}")),
        }
    }
}

/// The gateway's share of one open-loop slice, on the calling thread.
#[allow(clippy::too_many_arguments)]
fn gateway_loop(
    conn: &mut Conn,
    campus: &Campus,
    range: std::ops::Range<usize>,
    load: &Load,
    t0: Instant,
    stream_now: &AtomicU64,
    out: &mut GatewaySide,
) -> Result<(), String> {
    let start = campus.until(range.start - 1);
    let due_of = |b: usize| (campus.until(b) - start) / load.compression;
    let mut next = range.start;
    let mut buf = Vec::new();
    loop {
        let scheduling = next < range.end;
        let now = t0.elapsed().as_secs_f64();
        if scheduling && now >= due_of(next) {
            campus.batch_into(next, &mut buf);
            io(conn.send_batch(&buf))?;
            let sent = t0.elapsed().as_secs_f64();
            out.late_s.push(sent - due_of(next));
            out.pending.push_back((next, due_of(next), sent));
            next += 1;
            continue;
        }
        if !scheduling && out.pending.is_empty() {
            return Ok(());
        }
        let deadline = if scheduling {
            t0 + Duration::from_secs_f64(due_of(next))
        } else {
            Instant::now() + Duration::from_secs(30)
        };
        match io(conn.recv_until(Some(deadline)))? {
            None if !scheduling => return Err("batch acks stopped arriving".into()),
            None => {}
            Some(Reply::Ack(ack)) => {
                let done = t0.elapsed().as_secs_f64();
                let (b, due, sent) = out.pending.pop_front().ok_or("unsolicited BATCH_OK")?;
                out.ledger.batch(false, ack.lagged);
                out.acks.push(AckRecord {
                    scheduled: due,
                    acked: done,
                    drove: ack.drove,
                });
                out.ack_batch.push(b as u32);
                out.ack_rtt_s.push(done - sent);
                stream_now.store(campus.until(b).to_bits(), Ordering::Release);
            }
            Some(other) => return Err(format!("gateway connection got {other:?}")),
        }
    }
}

/// The oracle's first half, on the live stack: `STATS` must balance with
/// nothing lost, and the served answer of every lifetime streamed so far
/// is kept for [`verify`].
fn oracle(queries: &mut Conn, campus: &Campus, upto: usize, s: &mut Session) -> Result<(), String> {
    let stats = io(queries.stats())?;
    let sent = campus.events_before(upto);
    s.check(stats.balanced(), || {
        format!("closed-loop STATS unbalanced: {stats}")
    });
    s.check(stats.accepted == sent, || {
        format!("STATS accepted {} != {sent} sent", stats.accepted)
    });
    s.check(stats.lagged == 0 && stats.protocol_errors == 0, || {
        format!("closed-loop STATS lost events: {stats}")
    });
    let at = campus.until(upto - 1);
    s.served_at = at;
    for (i, l) in campus.lifetimes.iter().enumerate() {
        if l.born < at {
            let served = io(queries.query(l.zone, LocationQuery { tag: l.key, at }))?;
            s.served.push((i, served));
        }
    }
    s.check(!s.served.is_empty(), || {
        "oracle compared no lifetimes".into()
    });
    Ok(())
}

/// The oracle's second half, after the session (so the reference
/// replay's memory is not the server's): every kept answer must be
/// `to_bits`-identical to an in-process `IngestServer` per zone fed the
/// same batches with one drive per batch.
pub fn verify(campus: &Campus, s: &mut Session) {
    let mut reference = Replay::new(campus, Vire::default);
    let mut buf = Vec::new();
    for b in 0..s.oracle_batches {
        campus.batch_into(b, &mut buf);
        reference.batch(b as u32, &buf, None);
    }
    s.ledger.attempted += reference.ledger.attempted;
    s.ledger.failed += reference.ledger.failed;
    let at = s.served_at;
    let mismatch = s.served.iter().find_map(|(i, served)| {
        let l = &campus.lifetimes[*i];
        let local = reference.zones[l.zone as usize].query(LocationQuery { tag: l.key, at });
        (!same_answer(served, &local)).then(|| {
            format!(
                "zone {} tag {:?}: served {served:?} != in-process {local:?}",
                l.zone, l.key
            )
        })
    });
    s.failures.extend(mismatch);
}

/// Times `n` more set-ups, each on a throwaway server shut down before
/// the next is built, so the process holds one of them at a time.
pub fn setups<L: Localizer + Send + 'static>(
    s: &mut Session,
    campus: &Campus,
    n: usize,
    mut localizer: impl FnMut() -> L,
) -> Result<(), String> {
    for _ in 0..n {
        let (stack, secs) = stand_up(campus, &mut localizer, &mut s.ledger)?;
        s.setup_s.push(secs);
        s.sample_memory();
        shut_down(stack, s)?;
    }
    Ok(())
}

/// Runs every phase into `s` (made by [`Session::new`] for `load`).
/// `localizer` builds each zone's localizer for the network server (the
/// oracle always replays with `Vire::default()`).
pub fn run<L: Localizer + Send + 'static>(
    s: &mut Session,
    campus: &Campus,
    load: &Load,
    seed: u64,
    mut localizer: impl FnMut() -> L,
) -> Result<(), String> {
    // 1. Set-up of the server that stays up.
    let (stack, secs) = stand_up(campus, &mut localizer, &mut s.ledger)?;
    s.setup_s.push(secs);
    s.setup_batches = stack.next;
    s.sample_memory();
    let Stack {
        server,
        mut gateway,
        mut queries,
        mut next,
    } = stack;

    // 2. Rounds; the oracle after the first closed-loop ingest slice,
    //    before any batch could have been parked.
    let mut rng = Rng::new(seed ^ 0x0bad_cafe);
    for round in 0..ROUNDS {
        for _ in 0..CLOSED_PIECES {
            let piece = load.closed_stream_s / CLOSED_PIECES as f64;
            let end = campus.end_after(next, piece);
            let (events, secs, parked) =
                closed_loop(&mut gateway, campus, next..end, &mut s.ledger)?;
            s.ingest_rate.push(events as f64 / secs);
            s.check(parked == 0, || {
                format!("{parked} closed-loop batches were parked; every batch must drive")
            });
            s.sample_memory();
            next = end;
        }
        if round == 0 {
            s.oracle_batches = next;
            oracle(&mut queries, campus, next, s)?;
        }
        let at = campus.until(next - 1);
        for _ in 0..QUERY_PIECES {
            let secs = closed_queries(&mut queries, campus, at, load.mix, &mut rng, &mut s.ledger)?;
            s.query_rate.push(QUERY_PIECE as f64 / secs);
        }
        s.sample_memory();

        let end = campus.end_after(next, load.open_s * load.compression);
        // The stream time of the latest acked batch, as `f64` bits: the
        // gateway thread stores it (Release) after each ack, the query
        // thread loads it (Acquire) as each query's `at`. It publishes
        // nothing else.
        let stream_now = AtomicU64::new(campus.until(next - 1).to_bits());
        let OpenSlice {
            gateway: gw,
            queries: qs,
        } = &mut s.open[round];
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let q = scope
                .spawn(|| query_loop(&mut queries, campus, load, &mut rng, t0, &stream_now, qs));
            let g = gateway_loop(&mut gateway, campus, next..end, load, t0, &stream_now, gw);
            let q = q.join().map_err(|_| "query thread panicked".to_string());
            match (g, q) {
                (Ok(()), Ok(Ok(()))) => Ok(()),
                (Err(e), _) | (_, Ok(Err(e))) | (_, Err(e)) => Err(e),
            }
        })?;
        for l in [gw.ledger, qs.ledger] {
            s.ledger.attempted += l.attempted;
            s.ledger.failed += l.failed;
        }
        let notes = qs.failures.clone();
        s.notes.extend(notes);
        s.sample_memory();
        next = end;
    }
    s.batches_sent = next;

    // 3. Final accounting over the whole stream.
    let total = campus.events_before(next);
    let stats = io(queries.stats())?;
    s.check(stats.balanced() && stats.accepted == total, || {
        format!("final STATS: {stats}, {total} events sent")
    });
    s.ledger.protocol_errors(stats.protocol_errors);
    s.sample_memory();
    s.final_stats = shut_down(
        Stack {
            server,
            gateway,
            queries,
            next,
        },
        s,
    )?;
    Ok(())
}
