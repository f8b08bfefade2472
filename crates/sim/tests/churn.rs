//! Generational churn vs a never-reused-ids oracle.
//!
//! The generational slab reuses freed tag slots; the oracle hands every
//! lifetime a fresh, never-reused slot index (the pre-generational
//! discipline, which is trivially alias-free but leaks a row per
//! lifetime). A random spawn/despawn/re-enter schedule must be
//! *observationally identical* between the two:
//!
//! * the location service produces bitwise-equal estimates and equal
//!   track counts after every drive,
//! * the link-budget cache answers the same hit/miss sequence,
//!
//! while the slab's storage stays at the peak-live high-water mark
//! instead of growing with total lifetimes — in the testbed and in the
//! served smoothing table alike.

use proptest::prelude::*;
use vire_core::{
    BeaconEvent, LocationService, ReferenceRssiMap, ServiceConfig, SnapshotSource, TagKey,
    TrackedEstimate, TrackingReading, Vire,
};
use vire_geom::{GridData, HandleAllocator, Point2, RegularGrid, TagHandle};
use vire_radio::budget::{LinkBudget, LinkBudgetCache};
use vire_sim::{IngestServer, ServeConfig, Testbed, TestbedConfig};

const ASSETS: usize = 4;
const READERS: usize = 4;

fn readers() -> Vec<Point2> {
    vec![
        Point2::new(-1.0, -1.0),
        Point2::new(4.0, -1.0),
        Point2::new(4.0, 4.0),
        Point2::new(-1.0, 4.0),
    ]
}

fn field(p: Point2, r: Point2) -> f64 {
    -62.0 - 24.0 * p.distance(r).max(0.1).log10()
}

fn map() -> ReferenceRssiMap {
    let rs = readers();
    let grid = RegularGrid::square(Point2::ORIGIN, 1.0, 4);
    let fields = rs
        .iter()
        .map(|&r| GridData::from_fn(grid, move |_, p| field(p, r)))
        .collect();
    ReferenceRssiMap::new(grid, rs, fields)
}

fn reading_at(p: Point2) -> TrackingReading {
    TrackingReading::new(readers().iter().map(|&r| field(p, r)).collect())
}

/// One schedule step against a logical asset.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Asset enters (re-enters) the deployment at `Point2`.
    Spawn(usize, Point2),
    /// Asset leaves.
    Despawn(usize),
    /// Asset beacons from `Point2`.
    Read(usize, Point2),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0..3usize, 0..ASSETS, 0.1..2.9f64, 0.1..2.9f64).prop_map(|(kind, a, x, y)| {
        let p = Point2::new(x, y);
        match kind {
            0 => Op::Spawn(a, p),
            1 => Op::Despawn(a),
            _ => Op::Read(a, p),
        }
    })
}

/// A scripted pipeline stage with removal events.
struct ScriptStage {
    time: f64,
    map: ReferenceRssiMap,
    dirty: Vec<(TagKey, TrackingReading)>,
    removed: Vec<TagKey>,
}

impl SnapshotSource for ScriptStage {
    fn snapshot_time(&self) -> f64 {
        self.time
    }
    fn reference_map(&mut self) -> Option<&ReferenceRssiMap> {
        Some(&self.map)
    }
    fn changed_readings(&mut self) -> Vec<(TagKey, TrackingReading)> {
        std::mem::take(&mut self.dirty)
    }
    fn removed_tags(&mut self) -> Vec<TagKey> {
        std::mem::take(&mut self.removed)
    }
}

/// Identity assignment for one arm of the comparison.
trait Ids {
    fn spawn(&mut self, asset: usize) -> TagKey;
    fn despawn(&mut self, asset: usize) -> TagKey;
    fn current(&self, asset: usize) -> Option<TagKey>;
}

/// Slab arm: slots are reused at bumped generations.
struct SlabIds {
    slab: HandleAllocator,
    live: [Option<TagHandle>; ASSETS],
}

impl Ids for SlabIds {
    fn spawn(&mut self, asset: usize) -> TagKey {
        let h = self.slab.alloc();
        self.live[asset] = Some(h);
        h
    }
    fn despawn(&mut self, asset: usize) -> TagKey {
        let h = self.live[asset].take().expect("live");
        assert!(self.slab.release(h));
        h
    }
    fn current(&self, asset: usize) -> Option<TagKey> {
        self.live[asset]
    }
}

/// Oracle arm: every lifetime gets a fresh slot, generation 0 forever.
struct OracleIds {
    next: u32,
    live: [Option<TagHandle>; ASSETS],
}

impl Ids for OracleIds {
    fn spawn(&mut self, asset: usize) -> TagKey {
        let h = TagHandle::first(self.next);
        self.next += 1;
        self.live[asset] = Some(h);
        h
    }
    fn despawn(&mut self, asset: usize) -> TagKey {
        self.live[asset].take().expect("live")
    }
    fn current(&self, asset: usize) -> Option<TagKey> {
        self.live[asset]
    }
}

fn estimate_bits(e: &TrackedEstimate) -> [u64; 6] {
    [
        e.position.x.to_bits(),
        e.position.y.to_bits(),
        e.velocity.x.to_bits(),
        e.velocity.y.to_bits(),
        e.raw.position.x.to_bits(),
        e.raw.position.y.to_bits(),
    ]
}

/// Interprets the schedule through one arm: the ops between drives become
/// one stage round each. Returns per-round (estimate images, track count).
fn interpret<I: Ids>(
    ops: &[Op],
    ids: &mut I,
    drive_every: usize,
) -> Vec<(Vec<Option<[u64; 6]>>, usize)> {
    let mut svc = LocationService::new(Vire::default(), ServiceConfig::default());
    let mut stage = ScriptStage {
        time: 0.0,
        map: map(),
        dirty: Vec::new(),
        removed: Vec::new(),
    };
    let mut rounds = Vec::new();
    for (i, chunk) in ops.chunks(drive_every).enumerate() {
        for &op in chunk {
            match op {
                Op::Spawn(a, p) => {
                    if ids.current(a).is_none() {
                        let key = ids.spawn(a);
                        stage.dirty.push((key, reading_at(p)));
                    }
                }
                Op::Despawn(a) => {
                    if ids.current(a).is_some() {
                        let key = ids.despawn(a);
                        // Mirror `MiddlewareStage::note_removed`: removal
                        // purges the tag's queued reading — a removed
                        // lifetime never surfaces in changed_readings.
                        stage.dirty.retain(|(k, _)| *k != key);
                        stage.removed.push(key);
                    }
                }
                Op::Read(a, p) => {
                    if let Some(key) = ids.current(a) {
                        stage.dirty.retain(|(k, _)| *k != key);
                        stage.dirty.push((key, reading_at(p)));
                    }
                }
            }
        }
        stage.time = (i + 1) as f64;
        let out = svc.drive(&mut stage);
        let images = out
            .iter()
            .map(|(_, r)| r.as_ref().ok().map(estimate_bits))
            .collect();
        rounds.push((images, svc.tracked_tags().len()));
    }
    rounds
}

/// Drives one arm's cache through the schedule; budgets depend only on
/// the position, so both arms compute identical values. Returns the
/// hit/miss sequence image.
fn cache_run<I: Ids>(ops: &[Op], ids: &mut I) -> (Vec<bool>, LinkBudgetCache) {
    let mut cache = LinkBudgetCache::new(READERS);
    let mut hits = Vec::new();
    for &op in ops {
        match op {
            Op::Spawn(a, p) | Op::Read(a, p) => {
                let key = match op {
                    Op::Spawn(_, _) => {
                        if ids.current(a).is_some() {
                            continue;
                        }
                        ids.spawn(a)
                    }
                    _ => match ids.current(a) {
                        Some(k) => k,
                        None => continue,
                    },
                };
                for rx in 0..READERS {
                    hits.push(cache.get(key, rx).is_some());
                    cache.get_or_insert_with(key, rx, || LinkBudget {
                        mean_dbm: field(p, readers()[rx]),
                        rx_gain_db: 0.0,
                    });
                }
            }
            Op::Despawn(a) => {
                if ids.current(a).is_some() {
                    cache.release_tx(ids.despawn(a));
                }
            }
        }
    }
    (hits, cache)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The acceptance oracle: slab-reused identity is observationally
    /// identical to never-reused identity through the location service —
    /// same estimates (bitwise), same track counts, every round.
    #[test]
    fn slab_service_matches_never_reused_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..40),
    ) {
        let mut slab = SlabIds { slab: HandleAllocator::new(), live: [None; ASSETS] };
        let mut oracle = OracleIds { next: 0, live: [None; ASSETS] };
        let a = interpret(&ops, &mut slab, 3);
        let b = interpret(&ops, &mut oracle, 3);
        prop_assert_eq!(a.len(), b.len());
        for (round, ((est_a, tracks_a), (est_b, tracks_b))) in
            a.iter().zip(&b).enumerate()
        {
            prop_assert_eq!(est_a, est_b, "estimates diverged in round {}", round);
            prop_assert_eq!(tracks_a, tracks_b, "track counts diverged in round {}", round);
        }
        // Storage: the slab never exceeds the concurrent-asset bound while
        // the oracle grows with total lifetimes.
        prop_assert!(slab.slab.slot_count() <= ASSETS);
        prop_assert!(oracle.next as usize >= slab.slab.slot_count());
    }

    /// Cache oracle: the generation-keyed cache answers the same hit/miss
    /// sequence as a never-reused-rows cache — a reused slot is a
    /// guaranteed miss, indistinguishable from a fresh row.
    #[test]
    fn slab_cache_matches_never_reused_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let mut slab = SlabIds { slab: HandleAllocator::new(), live: [None; ASSETS] };
        let mut oracle = OracleIds { next: 0, live: [None; ASSETS] };
        let (hits_a, cache_a) = cache_run(&ops, &mut slab);
        let (hits_b, cache_b) = cache_run(&ops, &mut oracle);
        prop_assert_eq!(hits_a, hits_b, "hit/miss sequences diverged");
        let (sa, sb) = (cache_a.stats(), cache_b.stats());
        prop_assert_eq!(sa.hits, sb.hits);
        prop_assert_eq!(sa.misses, sb.misses);
        // Bounded vs monotonic storage.
        prop_assert!(cache_a.allocated_rows() <= ASSETS);
        prop_assert_eq!(cache_b.allocated_rows(), oracle.next as usize);
    }
}

/// The high-water pin: a testbed churning hard keeps its slab capacity
/// and cache row table exactly at the peak live population, no matter how
/// many lifetimes pass through.
#[test]
fn testbed_storage_pins_at_the_high_water_mark() {
    let mut tb = Testbed::new(TestbedConfig::paper(vire_env::presets::env2(), 17));
    let lattice = tb.tag_slot_count();
    let mut peak = tb.live_tag_count();
    // 40 rounds: grow to 5 tracking tags, then churn 2 in / 2 out.
    let mut live: std::collections::VecDeque<_> = (0..5)
        .map(|i| tb.add_tracking_tag(Point2::new(0.35 + 0.55 * i as f64, 2.55)))
        .collect();
    for round in 0..40u64 {
        peak = peak.max(tb.live_tag_count());
        tb.run_for(2.0);
        for _ in 0..2 {
            let old = live.pop_front().expect("steady roster");
            tb.remove_tracking_tag(old);
        }
        for j in 0..2 {
            let x = 0.3 + ((round * 2 + j) % 5) as f64 * 0.55;
            live.push_back(tb.add_tracking_tag(Point2::new(x, 0.45)));
        }
    }
    let stats = tb.tag_slab_stats();
    assert_eq!(
        tb.tag_slot_count(),
        peak,
        "slab capacity must sit exactly at the peak live population"
    );
    assert_eq!(tb.tag_slot_count(), lattice + 5);
    let cache = tb.link_budget_cache().expect("cache on");
    assert_eq!(
        cache.allocated_rows(),
        tb.tag_slot_count(),
        "cache rows are slot-indexed — bounded by the slab, not lifetimes"
    );
    assert_eq!(stats.allocated, (lattice + 5 + 40 * 2) as u64);
    assert_eq!(stats.released, 40 * 2);
    assert_eq!(
        stats.reused_slots,
        stats.allocated - tb.tag_slot_count() as u64,
        "every allocation past the high-water mark reuses a freed slot"
    );
    // The roster is still functional after heavy churn.
    tb.run_for(tb.warmup_duration());
    let newest = *live.back().expect("live roster");
    assert!(tb.is_live(newest));
    assert!(tb.tracking_reading(newest).is_some());
}

/// The same pin on the served path: a churning testbed's readings,
/// streamed through an [`IngestServer`] built from its trace, never hold
/// more smoothing slots than the peak live population, nor more streams
/// than that many slots' worth of readers, however many lifetimes pass
/// through — and every live tag is still served.
#[test]
fn served_storage_pins_at_the_high_water_mark() {
    let mut cfg = TestbedConfig::paper(vire_env::presets::env2(), 23);
    cfg.keep_log = true;
    let mut tb = Testbed::new(cfg);
    let mut live: std::collections::VecDeque<_> = (0..4)
        .map(|i| tb.add_tracking_tag(Point2::new(0.4 + 0.7 * i as f64, 2.5)))
        .collect();
    let mut peak = tb.live_tag_count();
    // 30 rounds of 4 s: each round retires the two oldest tags and
    // spawns two into the freed slots at bumped generations.
    for round in 0..30u64 {
        tb.run_for(4.0);
        for _ in 0..2 {
            tb.remove_tracking_tag(live.pop_front().expect("steady roster"));
        }
        for j in 0..2 {
            let x = 0.3 + ((round * 2 + j) % 5) as f64 * 0.6;
            live.push_back(tb.add_tracking_tag(Point2::new(x, 0.6)));
        }
        peak = peak.max(tb.live_tag_count());
    }
    tb.run_for(tb.warmup_duration());
    let trace = tb.export_trace("served churn capture");
    let lifetimes: std::collections::HashSet<_> = trace
        .readings
        .iter()
        .map(|r| (r.tag, r.generation))
        .collect();
    assert!(
        lifetimes.len() >= peak + 50,
        "the capture must churn far past the live population ({} lifetimes)",
        lifetimes.len()
    );

    let mut server = IngestServer::from_trace(&trace, Vire::default(), ServeConfig::default())
        .expect("testbed trace infers its own deployment");
    let readers = trace.readers.len();
    for chunk in trace.readings.chunks(97) {
        server.accept(chunk.iter().map(|r| BeaconEvent {
            time: r.time,
            tag: TagKey::new(r.tag, r.generation),
            reader: r.reader,
            rssi: r.rssi,
        }));
        server.drive();
        let mw = server.stage().middleware();
        assert!(
            mw.slot_count() <= peak,
            "{} smoothing slots held for a peak of {peak} live tags",
            mw.slot_count()
        );
        assert!(mw.stream_count() <= peak * readers);
    }
    // Every lifetime after a slot's first took its slot over, and the
    // live roster is served from fresh streams.
    let slots: std::collections::HashSet<_> = trace.readings.iter().map(|r| r.tag).collect();
    assert_eq!(
        server.slot_stats().takeovers,
        (lifetimes.len() - slots.len()) as u64
    );
    assert_eq!(server.slot_stats().rejected(), 0);
    for &tag in &live {
        let reading = server.stage().middleware().tracking_reading(tag, readers);
        assert!(reading.is_some(), "live tag {tag:?} is not served");
    }
}
