//! `vire-repro` — command-line driver for the reproduction.
//!
//! ```text
//! vire-repro <figure> [--seeds SPEC] [--corpus DIR] [--json]
//! vire-repro all [--seeds SPEC] [--corpus DIR]
//! vire-repro serve [--trace FILE] [--seeds SPEC] [--json] [--listen ADDR]
//! vire-repro list
//! ```
//!
//! Figures: `fig2 fig3 fig4 fig5 fig6 fig7 fig8 ablations`, plus the
//! multi-zone `campus` and tag-`churn` extensions.
//!
//! `serve` stands up the serving pipeline ([`vire::sim::IngestServer`])
//! from a trace file (or a freshly captured demo trace), replays the
//! readings in bursts — every reading smoothed, none merged — and reports
//! the ingest accounting plus a final location query per tracking tag. With
//! `--listen ADDR` it instead binds the TCP serving fabric
//! ([`vire::net::NetServer`]) on ADDR — gateways stream framed beacon
//! batches and location queries until `Ctrl-C`, which drains in-flight
//! frames and prints the final accounting.
//!
//! Every figure collects its simulated trials through the process-wide
//! [`vire::exp::TrialCache`], so a fixture shared between figures (fig7,
//! fig8 and three ablations all sweep the same Env3 deployment) is
//! simulated exactly once per run. `--corpus DIR` persists each simulated
//! fixture to `DIR/<fingerprint>.json` and reloads it on later runs.

use std::process::ExitCode;
use vire::exp::figures::{
    ablations, campus, cdf, characterization, churn, fig2, fig3, fig4, fig5, fig6, fig7, fig8,
    heatmap, latency,
};
use vire::exp::report::to_json;
use vire::exp::TrialCache;

struct Options {
    command: String,
    seeds: Vec<u64>,
    json: bool,
    trace: Option<String>,
    listen: Option<String>,
}

/// Parses a `--seeds` spec: a count `N` (seeds 1..=N), an inclusive range
/// `A..B`, or an explicit comma list `S1,S2,...`.
fn parse_seeds(spec: &str) -> Result<Vec<u64>, String> {
    let seeds: Vec<u64> = if let Some((a, b)) = spec.split_once("..") {
        let a: u64 = a.parse().map_err(|e| format!("--seeds range start: {e}"))?;
        let b: u64 = b.parse().map_err(|e| format!("--seeds range end: {e}"))?;
        if a > b {
            return Err(format!("--seeds range {a}..{b} is empty"));
        }
        (a..=b).collect()
    } else if spec.contains(',') {
        spec.split(',')
            .map(|s| s.trim().parse().map_err(|e| format!("--seeds list: {e}")))
            .collect::<Result<_, String>>()?
    } else {
        let n: u64 = spec.parse().map_err(|e| format!("--seeds: {e}"))?;
        (1..=n).collect()
    };
    if seeds.is_empty() {
        return Err("--seeds must name at least 1 seed".into());
    }
    Ok(seeds)
}

fn parse_args() -> Result<Options, String> {
    let mut args = std::env::args().skip(1);
    let command = args
        .next()
        .ok_or("missing command; try `vire-repro list`")?;
    let mut seeds: Vec<u64> = (1..=10).collect();
    let mut json = false;
    let mut trace: Option<String> = None;
    let mut listen: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                seeds = parse_seeds(&args.next().ok_or("--seeds needs a count/range/list")?)?;
            }
            "--corpus" => {
                let dir = args.next().ok_or("--corpus needs a directory")?;
                TrialCache::global()
                    .set_corpus(&dir)
                    .map_err(|e| format!("--corpus {dir}: {e}"))?;
            }
            "--json" => json = true,
            "--trace" => trace = Some(args.next().ok_or("--trace needs a file path")?),
            "--listen" => listen = Some(args.next().ok_or("--listen needs HOST:PORT")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        command,
        seeds,
        json,
        trace,
        listen,
    })
}

fn run_figure(name: &str, seeds: &[u64], json: bool) -> Result<(), String> {
    // cdf/heatmap batch many probe positions over derived seeds
    // `base + batch_index`; the base is the first requested seed.
    let base_seed = seeds.first().copied().unwrap_or(1);
    match name {
        "fig2" => {
            let r = fig2::run(seeds);
            print!("{}", fig2::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "fig3" => {
            let r = fig3::run_default();
            print!("{}", fig3::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "fig4" => {
            let r = fig4::run_default();
            print!("{}", fig4::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "fig5" => {
            let r = fig5::run_default();
            print!("{}", fig5::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "fig6" => {
            let r = fig6::run(seeds);
            print!("{}", fig6::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "fig7" => {
            let r = fig7::run(seeds);
            print!("{}", fig7::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "fig8" => {
            let r = fig8::run(seeds);
            print!("{}", fig8::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "cdf" => {
            for env in vire::env::presets::all_paper_environments() {
                let r = cdf::run(&env, 64, base_seed);
                print!("{}", cdf::render(&r));
                if json {
                    println!("{}", to_json(&r));
                }
            }
        }
        "characterization" => {
            let r = characterization::run(base_seed);
            print!("{}", characterization::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "heatmap" => {
            for env in vire::env::presets::all_paper_environments() {
                let r = heatmap::run(&env, &vire::core::Vire::default(), 13, 0.4, base_seed);
                print!("{}", heatmap::render(&r));
                if json {
                    println!("{}", to_json(&r));
                }
            }
        }
        "latency" => {
            let r = latency::run(seeds);
            print!("{}", latency::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "campus" => {
            // Zones scale with the seed budget's intent: a fixed 4-zone
            // campus driven for 6 fabric rounds, deterministic in seed 1.
            let r = campus::run(4, 6, base_seed);
            print!("{}", campus::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "churn" => {
            // The default production-churn schedule (>= 1000 spawn/despawn
            // events per simulated minute), deterministic in seed 1.
            let r = churn::run_default(base_seed);
            print!("{}", churn::render(&r));
            if json {
                println!("{}", to_json(&r));
            }
        }
        "ablations" => {
            for study in [
                ablations::kernels(seeds),
                ablations::weighting(seeds),
                ablations::equipment(seeds),
                ablations::boundary(seeds),
                ablations::reader_count(seeds),
                ablations::smoothing(seeds),
                ablations::grid_spacing(seeds),
                ablations::channel_fidelity(seeds),
                ablations::landmarc_k(seeds),
                ablations::reader_placement(seeds),
            ] {
                print!("{}", ablations::render(&study));
                if json {
                    println!("{}", to_json(&study));
                }
            }
        }
        other => return Err(format!("unknown figure {other}; try `vire-repro list`")),
    }
    Ok(())
}

/// Loads the serve trace: `--trace FILE` when given, else a fresh demo
/// capture from the paper testbed seeded by the first `--seeds` entry.
fn load_serve_trace(seeds: &[u64], trace_path: Option<&str>) -> Result<vire::sim::Trace, String> {
    use vire::geom::Point2;
    use vire::sim::{Testbed, TestbedConfig, Trace};
    match trace_path {
        Some(path) => Trace::load(path).map_err(|e| format!("--trace {path}: {e}")),
        None => {
            let seed = seeds.first().copied().unwrap_or(1);
            let mut cfg = TestbedConfig::paper(vire::env::presets::env2(), seed);
            cfg.keep_log = true;
            let mut tb = Testbed::new(cfg);
            tb.add_tracking_tag(Point2::new(1.2, 1.1));
            tb.add_tracking_tag(Point2::new(2.1, 2.3));
            tb.run_for(60.0);
            Ok(tb.export_trace(format!("demo capture, paper testbed, seed {seed}")))
        }
    }
}

/// Binds the TCP serving fabric on `addr` and serves gateway connections
/// until `Ctrl-C`; the trace supplies the zone's deployment geometry. On
/// shutdown, in-flight frames are drained and the final accounting is
/// printed with its balance verdict.
fn run_listen(seeds: &[u64], trace_path: Option<&str>, addr: &str) -> Result<(), String> {
    use vire::core::Vire;
    use vire::net::{install_sigint, sigint_pending, NetConfig, NetServer};

    let trace = load_serve_trace(seeds, trace_path)?;
    let mut server = NetServer::from_traces(
        addr,
        std::slice::from_ref(&trace),
        |_| Vire::default(),
        NetConfig::default(),
    )
    .map_err(|e| format!("--listen {addr}: {e}"))?;

    if !install_sigint() {
        eprintln!("vire-repro: warning: no SIGINT handler; stop with SIGKILL");
    }
    println!(
        "serving \"{}\" on {} ({} readers, 1 zone); Ctrl-C to drain and stop",
        trace.description,
        server.local_addr(),
        trace.readers.len(),
    );
    while !sigint_pending() {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("\nSIGINT: draining in-flight frames...");
    let stats = server.stop();
    println!("final {stats}");
    println!("smoothing slots: {}", server.slot_stats());
    if stats.balanced() {
        println!(
            "accounting balanced: accepted {} == delivered {} (every reading smoothed)",
            stats.accepted, stats.delivered
        );
        Ok(())
    } else {
        Err(format!("accounting does NOT balance: {stats}"))
    }
}

/// Replays a trace through the serving pipeline in bursts and reports
/// the ingest accounting plus a final query per tracking tag. Captures a
/// demo trace from the paper testbed (seeded by the first `--seeds`
/// entry) when no `--trace` file is given.
fn run_serve(seeds: &[u64], trace_path: Option<&str>, json: bool) -> Result<(), String> {
    use vire::core::{LocationQuery, QueryResponse, TagKey, Vire};
    use vire::sim::{IngestServer, ServeConfig};

    let trace = load_serve_trace(seeds, trace_path)?;

    let mut server = IngestServer::from_trace(&trace, Vire::default(), ServeConfig::default())
        .map_err(|e| format!("trace deployment: {e}"))?;

    // Every non-reference lifetime seen in the log is a queryable tag.
    let mut tracking: Vec<TagKey> = Vec::new();
    for r in &trace.readings {
        let key = TagKey::new(r.tag, r.generation);
        if !trace.reference_tags.iter().any(|&(slot, _)| slot == r.tag) && !tracking.contains(&key)
        {
            tracking.push(key);
        }
    }

    let mut drives = 0u64;
    let mut localized = 0usize;
    for chunk in trace.readings.chunks(512) {
        let events = chunk.iter().map(|r| vire::core::BeaconEvent {
            time: r.time,
            tag: TagKey::new(r.tag, r.generation),
            reader: r.reader,
            rssi: r.rssi,
        });
        server.accept(events);
        let report = server.drive();
        drives += 1;
        localized += report.results.len();
    }

    let stats = server.ingest_stats();
    let slots = server.slot_stats();
    let now = trace.readings.last().map(|r| r.time).unwrap_or(0.0);
    println!("serve: \"{}\"", trace.description);
    println!(
        "  {} readings in {} bursts -> {} smoothed, {} localizations",
        stats.accepted, drives, stats.delivered, localized,
    );
    println!("  smoothing slots: {slots}");
    for &tag in &tracking {
        match server.query(LocationQuery { tag, at: now }) {
            QueryResponse::Fresh { position, age, .. } => {
                println!(
                    "  {tag}: ({:.3}, {:.3}) m, {age:.1} s old",
                    position.x, position.y
                )
            }
            QueryResponse::Stale { position, age } => println!(
                "  {tag}: stale ({:.3}, {:.3}) m, {age:.1} s old",
                position.x, position.y
            ),
            QueryResponse::Unknown => println!("  {tag}: unknown"),
        }
    }
    if json {
        println!(
            "{{\"accepted\": {}, \"delivered\": {}, \"drives\": {}, \"localized\": {}, \
             \"tracking_tags\": {}, \"takeovers\": {}, \"rejected_stale_generation\": {}, \
             \"rejected_reference_generation\": {}, \"rejected_unknown_reader\": {}}}",
            stats.accepted,
            stats.delivered,
            drives,
            localized,
            tracking.len(),
            slots.takeovers,
            slots.stale_generation,
            slots.reference_generation,
            slots.unknown_reader,
        );
    }
    Ok(())
}

const ALL: [&str; 14] = [
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "cdf",
    "heatmap",
    "latency",
    "characterization",
    "campus",
    "churn",
    "ablations",
];

fn print_cache_line(label: &str, s: vire::exp::CacheStats) {
    eprintln!(
        "trial cache [{label}]: {} lookups, {} hits, {} waits, {} simulated, \
         {} corpus, hit rate {:.0}%",
        s.lookups,
        s.hits,
        s.in_flight_waits,
        s.simulated,
        s.corpus_loaded,
        s.hit_rate() * 100.0
    );
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("vire-repro: {e}");
            return ExitCode::FAILURE;
        }
    };

    match opts.command.as_str() {
        "list" => {
            println!("figures: {}", ALL.join(" "));
            println!("usage:   vire-repro <figure|all> [--seeds SPEC] [--corpus DIR] [--json]");
            println!(
                "         vire-repro serve [--trace FILE] [--seeds SPEC] [--json] [--listen ADDR]"
            );
            println!("serve:   replays FILE (or a fresh demo capture) through the ingest");
            println!("         server, smoothing every reading, and reports accounting + queries.");
            println!("         --listen ADDR binds the TCP serving fabric instead: gateways");
            println!("         stream framed batches/queries until Ctrl-C drains and stops.");
            println!("seeds:   SPEC is a count `N` (seeds 1..=N), an inclusive range `A..B`,");
            println!("         or a comma list `S1,S2,...`; figures average over all of them.");
            println!("         cdf/heatmap derive per-batch seeds as `first_seed + batch_index`;");
            println!("         campus/churn/characterization run on `first_seed` alone.");
            println!("corpus:  DIR stores one JSON file per simulated fixture, keyed by its");
            println!("         content fingerprint; later runs load instead of simulating.");
            ExitCode::SUCCESS
        }
        "serve" => {
            let run = match opts.listen.as_deref() {
                Some(addr) => run_listen(&opts.seeds, opts.trace.as_deref(), addr),
                None => run_serve(&opts.seeds, opts.trace.as_deref(), opts.json),
            };
            match run {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("vire-repro: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "all" => {
            let mut before = TrialCache::global().stats();
            for name in ALL {
                if let Err(e) = run_figure(name, &opts.seeds, opts.json) {
                    eprintln!("vire-repro: {e}");
                    return ExitCode::FAILURE;
                }
                let after = TrialCache::global().stats();
                print_cache_line(name, after.since(&before));
                before = after;
                println!();
            }
            print_cache_line("total", TrialCache::global().stats());
            ExitCode::SUCCESS
        }
        figure => match run_figure(figure, &opts.seeds, opts.json) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("vire-repro: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
