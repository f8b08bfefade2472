//! Workload inputs: a seeded multi-zone campus captured from the paper
//! testbed simulator, cut into gateway batches.
//!
//! Every zone is an independent `vire_sim::Testbed` (paper lattice, env2,
//! 4 readers, 16 reference tags) with its own tracking tags. Tags relocate
//! (`Testbed::move_tag`) or churn (`remove_tracking_tag` followed by
//! `add_tracking_tag`, which reuses the freed slot at a bumped generation)
//! on a schedule drawn from the workload seed. Each zone's decoded readings
//! are drained off its reading bus and merged into one campus stream whose reader ids
//! are lifted into the campus frame (zone `z` owns readers `4z..4z+4`),
//! and cut into fixed stream-time batches. The server only ever sees those
//! batches; the ground truth stays here for the accuracy metric.

use std::collections::HashMap;
use vire_core::{BeaconEvent, TagKey};
use vire_geom::Point2;
use vire_sim::{ReaderToken, Reading, Testbed, TestbedConfig, Trace};

/// SplitMix64: a tiny, seedable, dependency-free generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// How tracking tags change over the capture.
#[derive(Debug, Clone, Copy)]
pub enum Motion {
    /// Every tag relocates after a dwell drawn uniformly from the range.
    Relocate { dwell: (f64, f64) },
    /// Every tag lifetime ends after a life drawn uniformly from the
    /// range; its slot is immediately reused by a new lifetime at a fresh
    /// spot.
    Churn { life: (f64, f64) },
}

/// Campus shape and capture length.
#[derive(Debug, Clone, Copy)]
pub struct CampusSpec {
    pub zones: usize,
    pub tracking_per_zone: usize,
    /// Stream-time width of one gateway batch, seconds.
    pub batch_dt: f64,
    /// Stream seconds to capture.
    pub seconds: f64,
    pub motion: Motion,
}

/// One tag lifetime's ground truth.
#[derive(Debug, Clone)]
pub struct Lifetime {
    pub zone: u32,
    pub key: TagKey,
    pub born: f64,
    /// End of the lifetime (`f64::INFINITY` while live at capture end).
    pub died: f64,
    /// `(from stream time, position)`, time-ascending; the first entry is
    /// the spawn position at `born`.
    pub path: Vec<(f64, Point2)>,
}

impl Lifetime {
    /// True position at stream time `t` (the spawn spot before `born`).
    pub fn position_at(&self, t: f64) -> Point2 {
        let k = self.path.partition_point(|&(from, _)| from <= t);
        self.path[k.saturating_sub(1)].1
    }

    pub fn live_at(&self, t: f64) -> bool {
        self.born <= t && t < self.died
    }
}

/// One gateway frame's worth of readings.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Stream time at the batch's end (every reading is at or before it).
    pub until: f64,
    pub events: Vec<BeaconEvent>,
}

/// A generated campus: zone geometry, the batch stream, and ground truth.
///
/// A relocation capture may be shorter than the stream a run needs; the
/// stream then repeats it, shifted by the capture length each cycle (a
/// tag's jump back to its first spot is one more relocation). A churn
/// capture never repeats: its generations must only grow.
#[derive(Debug)]
pub struct Campus {
    /// Capture length, stream seconds.
    pub cycle_s: f64,
    pub repeats: bool,
    /// Per-zone traces with geometry only (no readings): what the server
    /// is stood up from.
    pub geometry: Vec<Trace>,
    pub readers_per_zone: Vec<usize>,
    pub batches: Vec<Batch>,
    pub lifetimes: Vec<Lifetime>,
    /// Per `(zone, slot)`: its lifetimes' indices, oldest first.
    pub slots: Vec<Vec<usize>>,
}

impl Campus {
    fn cycle(&self, i: usize) -> (usize, f64) {
        let n = self.batches.len();
        assert!(
            self.repeats || i < n,
            "stream index {i} past a {n}-batch capture that must not repeat"
        );
        (i % n, (i / n) as f64 * self.cycle_s)
    }

    /// Stream time at the end of stream batch `i`.
    pub fn until(&self, i: usize) -> f64 {
        let (k, shift) = self.cycle(i);
        self.batches[k].until + shift
    }

    pub fn len_of(&self, i: usize) -> usize {
        self.batches[self.cycle(i).0].events.len()
    }

    /// Writes stream batch `i` into `out` (cleared first).
    pub fn batch_into(&self, i: usize, out: &mut Vec<BeaconEvent>) {
        let (k, shift) = self.cycle(i);
        out.clear();
        out.extend(self.batches[k].events.iter().map(|e| BeaconEvent {
            time: e.time + shift,
            ..*e
        }));
    }

    /// Events in stream batches `0..n`.
    pub fn events_before(&self, n: usize) -> u64 {
        (0..n).map(|i| self.len_of(i) as u64).sum()
    }

    /// The first stream index after `from` whose end is at least
    /// `seconds` of stream past the end of batch `from - 1`.
    pub fn end_after(&self, from: usize, seconds: f64) -> usize {
        let start = if from == 0 { 0.0 } else { self.until(from - 1) };
        let mut i = from;
        while self.until(i) - start < seconds {
            i += 1;
        }
        i + 1
    }

    /// True position of `lifetime` at stream time `t`.
    pub fn position(&self, lifetime: usize, t: f64) -> Point2 {
        let t = if self.repeats { t % self.cycle_s } else { t };
        self.lifetimes[lifetime].position_at(t)
    }
}

/// Base of the per-zone testbed seeds.
const ZONE_SEED: u64 = 0x7a0e_0000;

/// Tracking spots stay inside the lattice, a little off its boundary.
fn spot(rng: &mut Rng) -> Point2 {
    Point2::new(rng.range(0.3, 2.7), rng.range(0.3, 2.7))
}

fn next_change(rng: &mut Rng, motion: Motion, now: f64) -> f64 {
    let (lo, hi) = match motion {
        Motion::Relocate { dwell } => dwell,
        Motion::Churn { life } => life,
    };
    now + rng.range(lo, hi)
}

/// Runs the testbed up to stream time `until`, draining every decoded
/// reading off its bus into `out` in steps short enough that the bus
/// never overwrites one.
fn advance(tb: &mut Testbed, token: &mut ReaderToken, until: f64, out: &mut Vec<Reading>) {
    while tb.clock() < until {
        tb.run_for((until - tb.clock()).min(5.0));
        let read = tb.events(token);
        assert_eq!(read.lagged(), 0, "capture lost readings off the bus");
        out.extend(read);
    }
}

/// Captures one zone: its geometry trace (no readings), its reading log
/// in time order, and its truth.
fn capture_zone(spec: &CampusSpec, zone: u32, seed: u64) -> (Trace, Vec<Reading>, Vec<Lifetime>) {
    let mut rng = Rng::new(seed.wrapping_mul(0x1000_0001).wrapping_add(zone as u64));
    // The building is fixed: each zone's RF channel (and the beacon
    // phase/jitter stream) comes from a per-zone constant. The workload
    // seed places and moves the tags.
    let cfg = TestbedConfig::paper(vire_env::presets::env2(), ZONE_SEED + zone as u64);
    let mut tb = Testbed::new(cfg);
    let mut token = tb.subscribe();
    let mut log = Vec::new();
    let mut live: Vec<(usize, f64)> = Vec::new(); // (lifetime index, next change)
    let mut lifetimes = Vec::new();
    for _ in 0..spec.tracking_per_zone {
        let p = spot(&mut rng);
        let key = tb.add_tracking_tag(p);
        lifetimes.push(Lifetime {
            zone,
            key,
            born: 0.0,
            died: f64::INFINITY,
            path: vec![(0.0, p)],
        });
        live.push((lifetimes.len() - 1, next_change(&mut rng, spec.motion, 0.0)));
    }
    loop {
        let (slot, &(_, at)) = live
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .expect("zone has tracking tags");
        if at >= spec.seconds {
            break;
        }
        advance(&mut tb, &mut token, at, &mut log);
        let lt = live[slot].0;
        let p = spot(&mut rng);
        match spec.motion {
            Motion::Relocate { .. } => {
                tb.move_tag(lifetimes[lt].key, p);
                lifetimes[lt].path.push((at, p));
                live[slot].1 = next_change(&mut rng, spec.motion, at);
            }
            Motion::Churn { .. } => {
                tb.remove_tracking_tag(lifetimes[lt].key);
                lifetimes[lt].died = at;
                let key = tb.add_tracking_tag(p);
                lifetimes.push(Lifetime {
                    zone,
                    key,
                    born: at,
                    died: f64::INFINITY,
                    path: vec![(at, p)],
                });
                live[slot] = (lifetimes.len() - 1, next_change(&mut rng, spec.motion, at));
            }
        }
    }
    advance(&mut tb, &mut token, spec.seconds, &mut log);
    (
        tb.export_trace(format!("perfbench zone {zone}")),
        log,
        lifetimes,
    )
}

/// Generates the campus for `seed`. Zones are captured one after another
/// and each zone's log is cut straight into the campus batches, so only
/// one zone's raw log is ever resident next to the batches.
pub fn campus(spec: &CampusSpec, seed: u64) -> Campus {
    let n_batches = (spec.seconds / spec.batch_dt).ceil() as usize;
    let mut per_batch: Vec<Vec<BeaconEvent>> = vec![Vec::new(); n_batches];
    let mut geometry = Vec::with_capacity(spec.zones);
    let mut readers_per_zone = Vec::with_capacity(spec.zones);
    let mut lifetimes = Vec::new();
    let mut base = 0u32;
    for z in 0..spec.zones as u32 {
        let (trace, log, truth) = capture_zone(spec, z, seed);
        for r in &log {
            // Batch k holds readings in ((k)·dt, (k+1)·dt].
            let k = ((r.time / spec.batch_dt).ceil() as usize).saturating_sub(1);
            per_batch[k.min(n_batches - 1)].push(BeaconEvent {
                time: r.time,
                tag: r.tag,
                reader: base + r.reader.0,
                rssi: r.rssi,
            });
        }
        base += trace.readers.len() as u32;
        readers_per_zone.push(trace.readers.len());
        geometry.push(trace);
        lifetimes.extend(truth);
    }
    let batches = per_batch
        .into_iter()
        .enumerate()
        .filter(|(_, events)| !events.is_empty())
        .map(|(k, mut events)| {
            // Stable: same-time readings keep their zone-major order.
            events.sort_by(|a, b| a.time.total_cmp(&b.time));
            Batch {
                until: (k + 1) as f64 * spec.batch_dt,
                events,
            }
        })
        .collect();
    let mut by_slot: HashMap<(u32, u32), Vec<usize>> = HashMap::new();
    for (i, l) in lifetimes.iter().enumerate() {
        by_slot.entry((l.zone, l.key.index)).or_default().push(i);
    }
    let mut slots: Vec<Vec<usize>> = by_slot.into_values().collect();
    slots.sort_by_key(|chain| chain[0]);
    for chain in &mut slots {
        chain.sort_by(|&a, &b| lifetimes[a].born.total_cmp(&lifetimes[b].born));
    }
    Campus {
        cycle_s: n_batches as f64 * spec.batch_dt,
        repeats: matches!(spec.motion, Motion::Relocate { .. }),
        geometry,
        readers_per_zone,
        batches,
        lifetimes,
        slots,
    }
}
