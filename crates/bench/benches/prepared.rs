//! Prepared vs per-reading-rebuild VIRE throughput.
//!
//! The prepared API ([`Vire::prepare`]) interpolates the virtual grid once
//! per calibration map and reuses a scratch arena across readings; the
//! rebuild path (one-shot [`Localizer::locate`], i.e. prepare + locate)
//! pays the map copy, the O(N²) interpolation and the sorted planes on
//! every call. This bench quantifies the gap at refine ∈ {5, 10, 20} and,
//! in bench mode, writes a machine-readable summary to
//! `target/prepared_vs_rebuild.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use vire_bench::fixture;
use vire_core::{Localizer, Vire, VireConfig, VireScratch};

const REFINES: [usize; 3] = [5, 10, 20];

fn vire_at(refine: usize) -> Vire {
    Vire::new(VireConfig {
        refine,
        ..VireConfig::default()
    })
}

fn bench_prepared_vs_rebuild(c: &mut Criterion) {
    let (map, tags) = fixture();
    let (_, reading) = &tags[0];

    let mut group = c.benchmark_group("prepared_vs_rebuild");
    for refine in REFINES {
        let vire = vire_at(refine);
        group.bench_with_input(BenchmarkId::new("rebuild", refine), &vire, |b, vire| {
            b.iter(|| vire.locate(black_box(&map), black_box(reading)).unwrap())
        });
        let prepared = vire.prepare(&map).expect("refine > 0");
        let mut scratch = VireScratch::new();
        group.bench_with_input(
            BenchmarkId::new("prepared", refine),
            &prepared,
            |b, prepared| {
                b.iter(|| {
                    prepared
                        .locate_with_scratch(black_box(reading), &mut scratch)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Mean ns per call of `f` over a fixed wall-clock budget.
fn time_ns<O>(mut f: impl FnMut() -> O) -> f64 {
    let budget = std::time::Duration::from_millis(250);
    // Warm-up sizes the batch so clock reads don't dominate.
    let start = Instant::now();
    let mut calls: u64 = 0;
    while start.elapsed() < budget / 5 {
        black_box(f());
        calls += 1;
    }
    let batch = calls.max(1);
    let start = Instant::now();
    let mut done: u64 = 0;
    while start.elapsed() < budget {
        for _ in 0..batch {
            black_box(f());
        }
        done += batch;
    }
    start.elapsed().as_secs_f64() * 1e9 / done as f64
}

/// One refine level's measurements in the JSON summary.
#[derive(Serialize)]
struct SummaryRow {
    refine: usize,
    rebuild_ns: f64,
    prepared_ns: f64,
    speedup: f64,
}

/// The `target/prepared_vs_rebuild.json` document.
#[derive(Serialize)]
struct Summary {
    group: String,
    fixture: String,
    rows: Vec<SummaryRow>,
}

/// Times both paths directly and emits `target/prepared_vs_rebuild.json`
/// with per-refine throughput and speedup. Only runs under `cargo bench`
/// (`--bench` flag): in `cargo test` smoke mode each criterion body above
/// already exercises the code once, and the timing loop would slow the
/// suite for no data.
fn emit_json_summary(_c: &mut Criterion) {
    if !std::env::args().any(|a| a == "--bench") {
        return;
    }
    let (map, tags) = fixture();
    let (_, reading) = &tags[0];

    let rows: Vec<SummaryRow> = REFINES
        .iter()
        .map(|&refine| {
            let vire = vire_at(refine);
            let prepared = vire.prepare(&map).expect("refine > 0");
            let mut scratch = VireScratch::new();
            // Bit-identity sanity check rides along with the timing run.
            assert_eq!(
                vire.locate(&map, reading).unwrap(),
                prepared.locate_with_scratch(reading, &mut scratch).unwrap(),
                "prepared estimate must be bit-identical at refine={refine}"
            );
            let rebuild_ns = time_ns(|| vire.locate(black_box(&map), black_box(reading)).unwrap());
            let prepared_ns = time_ns(|| {
                prepared
                    .locate_with_scratch(black_box(reading), &mut scratch)
                    .unwrap()
            });
            SummaryRow {
                refine,
                rebuild_ns,
                prepared_ns,
                speedup: rebuild_ns / prepared_ns,
            }
        })
        .collect();

    let summary = Summary {
        group: "prepared_vs_rebuild".into(),
        fixture: "env2 seed 42, Fig. 2(a) tag 1".into(),
        rows,
    };
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    let path = format!("{out}/prepared_vs_rebuild.json");
    std::fs::create_dir_all(out).expect("target dir");
    let body = serde_json::to_string_pretty(&summary).expect("serialize summary");
    std::fs::write(&path, body + "\n").expect("write summary");
    println!("prepared_vs_rebuild summary -> {path}");
    for row in &summary.rows {
        println!(
            "  refine {:>2}: rebuild {:>12.0} ns  prepared {:>10.0} ns  speedup {:>6.1}x",
            row.refine, row.rebuild_ns, row.prepared_ns, row.speedup,
        );
    }
}

criterion_group!(benches, bench_prepared_vs_rebuild, emit_json_summary);
criterion_main!(benches);
