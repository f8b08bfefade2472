//! Serving benchmark for the VIRE stack. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campus_steady --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload all` runs every workload, each in its own process, and
//! prints every metric by name with its unit. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).

mod conn;
mod gen;
mod layers;
mod replay;
mod repro;
mod serve;
mod stats;
mod trace;

use gen::{CampusSpec, Motion};
use serve::{status_mb, Load, Mix, Session};
use stats::{fix_latencies, window_percentiles, Ledger, Samples};
use std::time::Instant;
use trace::{SpanLog, Timed};
use vire_core::{LocationQuery, Vire};

/// One workload: the campus it generates and how it loads the stack,
/// as a function of the run length.
struct Workload {
    name: &'static str,
    batch_dt: f64,
    motion: Motion,
    /// Closed-loop stream seconds per second of run length.
    closed_stream_per_s: f64,
    /// Open-loop share of the run length.
    open_share: f64,
    compression: f64,
    query_rate: f64,
    mix: Mix,
}

const RELOCATE: Motion = Motion::Relocate {
    dwell: (20.0, 60.0),
};

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "campus_steady",
        batch_dt: 0.1,
        motion: RELOCATE,
        closed_stream_per_s: 80.0,
        open_share: 0.65,
        compression: 180.0,
        query_rate: 10_000.0,
        mix: Mix {
            live: 1.0,
            retired: 0.0,
        },
    },
    Workload {
        name: "burst_ingest",
        batch_dt: 5.0,
        motion: RELOCATE,
        closed_stream_per_s: 500.0,
        open_share: 0.65,
        compression: 1_400.0,
        query_rate: 2_000.0,
        mix: Mix {
            live: 1.0,
            retired: 0.0,
        },
    },
    Workload {
        name: "query_churn",
        batch_dt: 0.1,
        motion: Motion::Churn {
            life: (60.0, 180.0),
        },
        closed_stream_per_s: 60.0,
        open_share: 0.65,
        compression: 50.0,
        query_rate: 80_000.0,
        mix: Mix {
            live: 0.5,
            retired: 0.3,
        },
    },
];

/// Zones and tracking tags per zone on every workload's campus.
const ZONES: usize = 4;
const TRACKING_PER_ZONE: usize = 24;

/// Stream seconds reserved ahead of the closed loop for set-up.
const WARM_S: f64 = 30.0;

/// The run length when `--seconds` is not given: `run_seconds` in
/// `BENCHMARK.json`.
const RUN_SECONDS: f64 = 30.0;

/// Throwaway set-ups timed before the session and again after it; with
/// the session's own, `setup_s` is the median of 21.
const SETUPS_EACH_SIDE: usize = 10;

/// Longest relocation capture simulated; the stream repeats it.
const CYCLE_MAX_S: f64 = 1_800.0;

/// The load generator may run this late (p99, read like the latency
/// figures) before a run is invalid. Lateness is charged to the figures
/// anyway (latency runs from the scheduled send); the bound catches a
/// generator that could not keep its schedule at all. It sits well above
/// the 5–6 ms a neighbour's CPU steal pushed even the quiet windows to.
const LATE_P99_BOUND_MS: f64 = 20.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, RUN_SECONDS, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (or `all`)")?,
        seed,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// The run's outcome before printing.
struct Outcome {
    metrics: Vec<Metric>,
    ledger: Ledger,
    failures: Vec<String>,
    /// `name=value` provenance pairs (values already JSON-encoded).
    provenance: Vec<(String, String)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// Open-loop batches a round may leave without a fix latency (parked
/// after the slice's last drive), as a share of a window.
const UNATTRIBUTED_SLACK: f64 = 0.05;

/// The shortest run in which every open-loop round yields a full
/// [`stats::WINDOW`] of fix latencies and of query round trips.
fn min_seconds(w: &Workload) -> f64 {
    let per_s = (w.compression / w.batch_dt).min(w.query_rate);
    let per_round = stats::WINDOW as f64 * (1.0 + UNATTRIBUTED_SLACK);
    per_round * serve::ROUNDS as f64 / (w.open_share * per_s)
}

fn load_for(w: &Workload, seconds: f64) -> Load {
    let per_round = seconds / serve::ROUNDS as f64;
    Load {
        closed_stream_s: w.closed_stream_per_s * per_round,
        open_s: w.open_share * per_round,
        compression: w.compression,
        query_rate: w.query_rate,
        mix: w.mix,
    }
}

fn campus_for(w: &Workload, load: &Load, seed: u64) -> gen::Campus {
    let rounds = serve::ROUNDS as f64;
    let needed = WARM_S + rounds * (load.closed_stream_s + load.open_s * load.compression);
    let seconds = match w.motion {
        // A relocation capture repeats; cap what is simulated.
        Motion::Relocate { .. } => needed.min(CYCLE_MAX_S),
        Motion::Churn { .. } => needed + 10.0 * w.batch_dt,
    };
    let spec = CampusSpec {
        zones: ZONES,
        tracking_per_zone: TRACKING_PER_ZONE,
        batch_dt: w.batch_dt,
        seconds,
        motion: w.motion,
    };
    gen::campus(&spec, seed)
}

fn base_provenance(
    w: &Workload,
    a: &Args,
    load: &Load,
    campus: &gen::Campus,
) -> Vec<(String, String)> {
    let events: usize = campus.batches.iter().map(|b| b.events.len()).sum();
    let stream_rate = events as f64 / campus.cycle_s;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("workload".into(), json_str(w.name)),
        ("seed".into(), a.seed.to_string()),
        ("run_seconds".into(), a.seconds.to_string()),
        ("trace".into(), (a.trace as u8).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("rustc".into(), json_str(env!("PERFBENCH_RUSTC"))),
        ("git_revision".into(), json_str(&git_revision())),
        ("zones".into(), ZONES.to_string()),
        (
            "tracking_tags_per_zone".into(),
            TRACKING_PER_ZONE.to_string(),
        ),
        ("batch_stream_s".into(), w.batch_dt.to_string()),
        ("capture_stream_s".into(), campus.cycle_s.to_string()),
        ("capture_events".into(), events.to_string()),
        ("rounds".into(), serve::ROUNDS.to_string()),
        (
            "closed_loop_window".into(),
            serve::CLOSED_WINDOW.to_string(),
        ),
        (
            "closed_loop_stream_s_per_round".into(),
            load.closed_stream_s.to_string(),
        ),
        ("open_loop_s_per_round".into(), load.open_s.to_string()),
        (
            "offered_ingest_events_per_s".into(),
            format!("{:.0}", load.compression * stream_rate),
        ),
        (
            "offered_batches_per_s".into(),
            format!("{:.1}", load.compression / w.batch_dt),
        ),
        ("offered_queries_per_s".into(), load.query_rate.to_string()),
    ]
}

fn samples(v: &[f64]) -> Samples {
    let mut s = Samples::default();
    v.iter().for_each(|&x| s.push(x));
    s
}

/// The `over` percentile, across every round's windows, of the windows'
/// `q` percentile, and the number of windows behind it.
fn windowed(
    rounds: &[serve::OpenSlice],
    pick: impl Fn(&serve::OpenSlice) -> Vec<f64>,
    q: f64,
    over: f64,
    what: &str,
) -> Result<(f64, usize), String> {
    let mut per = Samples::default();
    for r in rounds {
        let ordered = pick(r);
        if ordered.len() < stats::WINDOW {
            return Err(format!(
                "{what}: a round has {} samples, fewer than one {}-sample window",
                ordered.len(),
                stats::WINDOW
            ));
        }
        for v in window_percentiles(&ordered, q) {
            per.push(v);
        }
    }
    Ok((per.quantile(over, what)?, per.len()))
}

/// A slice's fix latencies in send order, ms.
fn fix_ms(r: &serve::OpenSlice) -> Vec<f64> {
    fix_latencies(&r.gateway.acks)
        .0
        .iter()
        .map(|v| v * 1e3)
        .collect()
}

/// A slice's query round trips in send order, µs.
fn rtt_us(r: &serve::OpenSlice) -> Vec<f64> {
    r.queries.rtt_s.iter().map(|v| v * 1e6).collect()
}

/// The serving figures that are measured but not bounded (see the
/// README), each read at the quiet end of its pieces or windows over the
/// whole run.
struct Unbounded {
    ingest_events_per_s: f64,
    queries_per_s: f64,
    fix_latency_ms: [f64; 2],
    query_rtt_us: [f64; 2],
    /// How late the generator sent: the p99 of each window of batch sends
    /// and of query sends, read like the latency figures.
    late_p99_ms: f64,
    fix_windows: usize,
    rtt_windows: usize,
}

fn unbounded(s: &Session) -> Result<Unbounded, String> {
    let quiet = stats::QUIET;
    let (fix50, fix_windows) = windowed(&s.open, fix_ms, 50.0, quiet, "fix latency")?;
    let (fix99, _) = windowed(&s.open, fix_ms, 99.0, quiet, "fix latency")?;
    let (rtt50, rtt_windows) = windowed(&s.open, rtt_us, 50.0, quiet, "query RTT")?;
    let (rtt99, _) = windowed(&s.open, rtt_us, 99.0, quiet, "query RTT")?;
    let mut late = Samples::default();
    for r in &s.open {
        for sends in [&r.gateway.late_s, &r.queries.late_s] {
            for v in window_percentiles(sends, 99.0) {
                late.push(v * 1e3);
            }
        }
    }
    Ok(Unbounded {
        ingest_events_per_s: samples(&s.ingest_rate).quantile(100.0 - quiet, "ingest")?,
        queries_per_s: samples(&s.query_rate).quantile(100.0 - quiet, "query capacity")?,
        fix_latency_ms: [fix50, fix99],
        query_rtt_us: [rtt50, rtt99],
        late_p99_ms: late.quantile(quiet, "load-generator lateness")?,
        fix_windows,
        rtt_windows,
    })
}

/// The untraced run: every end-to-end metric.
fn end_to_end(w: &Workload, a: &Args) -> Result<Outcome, String> {
    let load = load_for(w, a.seconds);
    let campus = campus_for(w, &load, a.seed);
    let mut prov = base_provenance(w, a, &load, &campus);
    let wall = Instant::now();
    let mut s = Session::new(&campus, &load);
    // The inputs and the session's records are resident; the anonymous
    // memory the process gains from here until the session ends is the
    // server's.
    let (anon_before, hwm_before) = (status_mb("RssAnon:"), status_mb("VmHWM:"));
    // Set-ups before and after the session, so the figure samples the
    // host at both ends of the run.
    serve::setups(&mut s, &campus, SETUPS_EACH_SIDE, Vire::default)?;
    serve::run(&mut s, &campus, &load, a.seed, Vire::default)?;
    let hwm_after = status_mb("VmHWM:");
    serve::setups(&mut s, &campus, SETUPS_EACH_SIDE, Vire::default)?;
    let server_mb = s.anon_peak_mb - anon_before;
    if server_mb.is_nan() || server_mb <= 0.0 {
        s.failures.push(format!(
            "the session added no anonymous memory ({anon_before:.3} MB before, \
             {:.3} MB at its largest): the reading is broken",
            s.anon_peak_mb
        ));
    }
    serve::verify(&campus, &mut s);
    if let Err(e) = repro::check() {
        s.failures.push(format!("paper repro: {e}"));
    }

    let u = unbounded(&s)?;
    let fix_samples: usize = s.open.iter().map(|r| r.gateway.acks.len()).sum();
    let rtt_samples: usize = s.open.iter().map(|r| r.queries.rtt_s.len()).sum();
    let unattributed: usize = s
        .open
        .iter()
        .map(|r| fix_latencies(&r.gateway.acks).1)
        .sum();
    let mut setup = samples(&s.setup_s);
    let mut err = samples(&s.fix_errors());
    if u.late_p99_ms > LATE_P99_BOUND_MS {
        s.failures.push(format!(
            "load generator ran late: p99 {:.3} ms at the quiet end of its windows > {:.3} ms bound",
            u.late_p99_ms, LATE_P99_BOUND_MS
        ));
    }
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("setup_s", setup.pct(50.0, "setup")?, "s"),
        m("fix_error_p50_m", err.pct(50.0, "fix error")?, "m"),
        m("fix_error_p90_m", err.pct(90.0, "fix error")?, "m"),
        m("peak_rss_mb", server_mb, "MB"),
    ];
    for n in &s.notes {
        println!("failed operation: {n}");
    }
    prov.extend([
        ("samples_setup".into(), setup.len().to_string()),
        ("setup_pieces_s".into(), format!("{:.5?}", s.setup_s)),
        ("setup_batches".into(), s.setup_batches.to_string()),
        (
            "memory_mb_anon_before_anon_peak_hwm_before_hwm_after".into(),
            format!(
                "[{anon_before:.3}, {:.3}, {hwm_before:.3}, {hwm_after:.3}]",
                s.anon_peak_mb
            ),
        ),
        (
            "samples_ingest_pieces".into(),
            s.ingest_rate.len().to_string(),
        ),
        (
            "ingest_pieces_ev_per_s".into(),
            format!("{:.0?}", s.ingest_rate),
        ),
        (
            "samples_query_pieces".into(),
            s.query_rate.len().to_string(),
        ),
        ("query_pieces_per_s".into(), format!("{:.0?}", s.query_rate)),
        // Measured but not bounded: see the README.
        (
            "ingest_events_per_s".into(),
            u.ingest_events_per_s.to_string(),
        ),
        ("query_capacity_per_s".into(), u.queries_per_s.to_string()),
        ("fix_latency_p50_ms".into(), u.fix_latency_ms[0].to_string()),
        ("fix_latency_p99_ms".into(), u.fix_latency_ms[1].to_string()),
        ("query_rtt_p50_us".into(), u.query_rtt_us[0].to_string()),
        ("query_rtt_p99_us".into(), u.query_rtt_us[1].to_string()),
        ("samples_fix_latency".into(), fix_samples.to_string()),
        ("windows_fix_latency".into(), u.fix_windows.to_string()),
        (
            "unattributed_trailing_batches".into(),
            unattributed.to_string(),
        ),
        ("samples_query_rtt".into(), rtt_samples.to_string()),
        ("windows_query_rtt".into(), u.rtt_windows.to_string()),
        ("samples_fix_error".into(), err.len().to_string()),
        ("loadgen_late_p99_ms".into(), u.late_p99_ms.to_string()),
        ("failed_op_share".into(), s.ledger.share().to_string()),
        ("final_stats".into(), json_str(&s.final_stats.to_string())),
        (
            "wall_s".into(),
            format!("{:.3}", wall.elapsed().as_secs_f64()),
        ),
    ]);
    Ok(Outcome {
        metrics,
        ledger: s.ledger,
        failures: s.failures,
        provenance: prov,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run: every per-layer metric.
fn per_layer(w: &Workload, a: &Args) -> Result<Outcome, String> {
    let load = load_for(w, a.seconds);
    let campus = campus_for(w, &load, a.seed);
    let mut prov = base_provenance(w, a, &load, &campus);

    // The network session with the timing wrapper on every zone.
    let net_log = SpanLog::new();
    let log = net_log.clone();
    let mut s = Session::new(&campus, &load);
    serve::run(&mut s, &campus, &load, a.seed, move || {
        Timed::new(Vire::default(), log.clone())
    })?;
    let net_spans = net_log.take();
    serve::verify(&campus, &mut s);

    let overhead = tracing_overhead(&campus, s.oracle_batches);

    // The in-process replay of every batch the server saw, traced.
    let mut buf = Vec::new();
    let log = SpanLog::new();
    let wrapped = log.clone();
    let mut replay = replay::Replay::new(&campus, move || {
        Timed::new(Vire::default(), wrapped.clone())
    });
    for b in 0..s.batches_sent {
        campus.batch_into(b, &mut buf);
        replay.batch(b as u32, &buf, Some(&log));
    }
    let spans = log.take();
    s.ledger.attempted += replay.ledger.attempted;
    s.ledger.failed += replay.ledger.failed;

    let mut f = layers::fold(&spans);
    s.failures
        .extend(f.problems.iter().map(|p| format!("reconciliation: {p}")));

    // In-process queries on the replayed state, over every lifetime.
    let at = campus.until(s.batches_sent - 1);
    let mut rng = gen::Rng::new(a.seed ^ 0x51de);
    let mut query_ns = Samples::default();
    for _ in 0..20_000 {
        let slot = &campus.slots[rng.below(campus.slots.len())];
        let l = &campus.lifetimes[slot[rng.below(slot.len())]];
        let q = LocationQuery { tag: l.key, at };
        let t = Instant::now();
        std::hint::black_box(replay.zones[l.zone as usize].query(q));
        query_ns.push(t.elapsed().as_nanos() as f64);
    }

    // Transport: open-loop ack RTT minus in-process handling of the batch.
    let mut transport = Samples::default();
    let (mut acks, mut parked) = (0usize, 0usize);
    for r in s.open.iter().map(|r| &r.gateway) {
        acks += r.acks.len();
        parked += r.acks.iter().filter(|a| !a.drove).count();
        for (rtt, b) in r.ack_rtt_s.iter().zip(&r.ack_batch) {
            if let Some(&h) = f.handle_by_batch.get(b) {
                transport.push(rtt * 1e6 - h as f64 / 1e3);
            }
        }
    }
    let u = unbounded(&s)?;
    let exp = repro::layers(a.seed);
    let events = replay.events as f64;

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m(
            "codec.decode_ns_per_event",
            f.codec_ns as f64 / events,
            "ns",
        ),
        m(
            "codec.wire_bytes_per_event",
            replay.wire_bytes as f64 / events,
            "B",
        ),
        m(
            "server.route_ns_per_event",
            f.route_ns as f64 / events,
            "ns",
        ),
        m(
            "server.drove_false_share",
            ratio(parked as f64, acks as f64),
            "ratio",
        ),
        m(
            "server.transport_us_p50",
            transport.pct(50.0, "transport")?,
            "us",
        ),
        m(
            "ingest.front_ns_per_event",
            f.front_ns as f64 / events,
            "ns",
        ),
        m(
            "ingest.delivered_share",
            ratio(
                s.final_stats.delivered as f64,
                s.final_stats.accepted as f64,
            ),
            "ratio",
        ),
        m(
            "serve.accept_ns_per_event",
            ratio(f.accept_ns as f64, f.accept_events as f64),
            "ns",
        ),
        m("serve.drive_us_p50", f.drive_us.pct(50.0, "drive")?, "us"),
        m("serve.drive_us_p99", f.drive_us.pct(99.0, "drive")?, "us"),
        m(
            "serve.drive_self_us_p50",
            f.drive_self_us.pct(50.0, "drive self")?,
            "us",
        ),
        m(
            "serve.tags_per_drive",
            ratio(f.drive_tags as f64, f.drives as f64),
            "count",
        ),
        m(
            "incremental.sync_us_p50",
            f.sync_us.pct(50.0, "sync")?,
            "us",
        ),
        m(
            "incremental.sync_us_p99",
            f.sync_us.pct(99.0, "sync")?,
            "us",
        ),
        m(
            "incremental.patched_share",
            ratio(f.patched as f64, f.syncs as f64),
            "ratio",
        ),
        m(
            "incremental.rebuilt_share",
            ratio(f.rebuilt as f64, f.syncs as f64),
            "ratio",
        ),
        m(
            "incremental.cells_per_patch",
            ratio(f.patched_cells as f64, f.patched as f64),
            "count",
        ),
        m(
            "locate.us_per_tag_p50",
            f.locate_us_per_tag.pct(50.0, "locate per tag")?,
            "us",
        ),
        m(
            "locate.batch_us_p99",
            f.locate_batch_us.pct(99.0, "locate batch")?,
            "us",
        ),
        m("service.query_ns_p50", query_ns.pct(50.0, "query")?, "ns"),
        m("service.query_ns_p99", query_ns.pct(99.0, "query")?, "ns"),
        m("exp.repro_s", exp.repro_s, "s"),
        m("exp.collect_s", exp.collect_s, "s"),
        m("exp.locate_s", exp.locate_s, "s"),
        m("exp.trials_simulated", exp.trials_simulated as f64, "count"),
        m("exp.cache_hit_rate", exp.cache_hit_rate, "ratio"),
        m("loadgen.late_p99_ms", u.late_p99_ms, "ms"),
        m("closed.ingest_events_per_s", u.ingest_events_per_s, "ev/s"),
        m("closed.queries_per_s", u.queries_per_s, "1/s"),
        m("open.fix_latency_p50_ms", u.fix_latency_ms[0], "ms"),
        m("open.fix_latency_p99_ms", u.fix_latency_ms[1], "ms"),
        m("open.query_rtt_p50_us", u.query_rtt_us[0], "us"),
        m("open.query_rtt_p99_us", u.query_rtt_us[1], "us"),
        m("trace.overhead_share", overhead, "ratio"),
        m("trace.covered_share", f.coverage(), "ratio"),
    ];
    prov.extend([
        ("samples_drive".into(), f.drive_us.len().to_string()),
        ("samples_sync".into(), f.sync_us.len().to_string()),
        ("samples_locate".into(), f.locate_batch_us.len().to_string()),
        ("samples_query".into(), query_ns.len().to_string()),
        ("samples_transport".into(), transport.len().to_string()),
        ("net_wrapper_spans".into(), net_spans.len().to_string()),
        (
            "reconciliation_tolerance".into(),
            layers::COVERAGE_TOLERANCE.to_string(),
        ),
    ]);
    let path =
        std::path::PathBuf::from(".bench_out").join(format!("spans-{}-seed{}.csv", w.name, a.seed));
    let mut all = spans;
    all.extend(net_spans);
    match trace::write_csv(&path, &all) {
        Ok(()) => prov.push(("spans_file".into(), json_str(&path.display().to_string()))),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
    Ok(Outcome {
        metrics,
        ledger: s.ledger,
        failures: s.failures,
        provenance: prov,
    })
}

/// Pairs of replays behind `trace.overhead_share`, and the most batches
/// each replays (the oracle's prefix, cut to keep the traced run short).
const OVERHEAD_PAIRS: usize = 5;
const OVERHEAD_BATCHES: usize = 600;

/// Seconds to replay batches `0..prefix` in process, the replay built
/// before the timer starts.
fn replay_s<L: vire_core::Localizer>(
    campus: &gen::Campus,
    prefix: usize,
    localizer: impl FnMut() -> L,
    log: Option<&SpanLog>,
) -> f64 {
    let mut replay = replay::Replay::new(campus, localizer);
    let mut buf = Vec::new();
    let t = Instant::now();
    for b in 0..prefix {
        campus.batch_into(b, &mut buf);
        replay.batch(b as u32, &buf, log);
    }
    t.elapsed().as_secs_f64()
}

/// Tracing overhead over the oracle's prefix: a traced replay's wall time
/// over an untraced replay of the same batches, minus one. Each arm is
/// timed over the same loop with its replay built beforehand; the pairs
/// alternate which arm runs first, and the median ratio is reported.
fn tracing_overhead(campus: &gen::Campus, prefix: usize) -> f64 {
    let prefix = prefix.min(OVERHEAD_BATCHES);
    let traced = || {
        let log = SpanLog::new();
        let wrapped = log.clone();
        replay_s(
            campus,
            prefix,
            move || Timed::new(Vire::default(), wrapped.clone()),
            Some(&log),
        )
    };
    let untraced = || replay_s(campus, prefix, Vire::default, None);
    let mut ratios: Vec<f64> = (0..OVERHEAD_PAIRS)
        .map(|k| {
            let (t, u) = if k % 2 == 0 {
                let u = untraced();
                (traced(), u)
            } else {
                let t = traced();
                (t, untraced())
            };
            t / u
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[OVERHEAD_PAIRS / 2] - 1.0
}

fn print_outcome(o: &Outcome) -> bool {
    let prov: Vec<String> = o
        .provenance
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("provenance {{{}}}", prov.join(", "));
    for m in &o.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &o.failures {
        println!("FAILED CHECK: {f}");
    }
    let non_finite: Vec<&str> = o
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !non_finite.is_empty() {
        println!("FAILED CHECK: non-finite metrics {non_finite:?}");
    }
    let correct = o.failures.is_empty() && non_finite.is_empty();
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.ledger.attempted.max(1),
        o.ledger.failed,
        metrics.join(", ")
    );
    correct
}

/// Runs every workload in a child process of its own (each needs a cold
/// trial cache and its own peak-RSS reading) and waits for each.
fn run_all(a: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        println!("== {} ==", w.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let chosen: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || w.name == args.workload)
        .collect();
    if chosen.is_empty() {
        eprintln!(
            "perfbench: unknown workload {}; choose one of {:?} or all",
            args.workload,
            WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
        );
        std::process::exit(2);
    }
    for w in &chosen {
        let min = min_seconds(w);
        if args.seconds < min {
            eprintln!(
                "perfbench: {} needs --seconds {:.0} or more ({} open-loop rounds of at \
                 least {} fix latencies and query round trips each), not {}",
                w.name,
                min.ceil(),
                serve::ROUNDS,
                stats::WINDOW,
                args.seconds
            );
            std::process::exit(2);
        }
    }
    if args.workload == "all" {
        std::process::exit(if run_all(&args) { 0 } else { 1 });
    }
    let w = chosen[0];
    let outcome = if args.trace {
        per_layer(w, &args)
    } else {
        end_to_end(w, &args)
    };
    match outcome {
        Ok(o) => {
            if !print_outcome(&o) {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_fills_its_windows_at_the_default_length() {
        for w in &WORKLOADS {
            let min = min_seconds(w);
            assert!(min <= RUN_SECONDS, "{} needs {min} s", w.name);
            let load = load_for(w, min);
            let batches = load.open_s * load.compression / w.batch_dt;
            let queries = load.open_s * load.query_rate;
            let window = stats::WINDOW as f64;
            assert!(batches.min(queries) >= window, "{}", w.name);
        }
    }
}
