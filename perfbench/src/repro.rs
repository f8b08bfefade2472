//! The paper's evaluation as a batch job: the `vire_exp::figures`
//! generators for Figures 2, 6, 7 and 8 over a seed set derived from the
//! workload seed, with a cold trial cache and no corpus.
//!
//! This is the only phase that runs `vire-exp`, the `vire-radio`
//! simulation of whole trials and one-shot `Localizer::locate`; no
//! serving phase executes that path.

use crate::gen::Rng;
use std::time::Instant;
use vire_core::{Landmarc, Vire};
use vire_env::Deployment;
use vire_exp::figures::{fig2, fig6, fig7, fig8};
use vire_exp::runner::TrialSet;
use vire_exp::TrialCache;

/// Trials per environment in one regeneration of the figure set.
const SEEDS_PER_SET: usize = 30;

/// Seeds whose figure tables are checked against the reference digest.
const CHECK_SEEDS: [u64; 2] = [1, 2];

/// FNV-1a over the `to_bits` image of every error the figure set reports
/// for [`CHECK_SEEDS`], as computed by the code this benchmark was
/// written against. A change here means the reproduction's numbers moved.
const CHECK_DIGEST: u64 = 0x7252_8207_3e28_fba9;

#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: f64) {
        for b in v.to_bits().to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Regenerates the figure set for `seeds`; returns the digest of its
/// error tables.
fn figure_set(seeds: &[u64]) -> u64 {
    let mut d = Digest::new();
    let f2 = fig2::run(seeds);
    f2.errors.iter().flatten().for_each(|&v| d.add(v));
    let f6 = fig6::run(seeds);
    f6.vire.iter().flatten().for_each(|&v| d.add(v));
    f6.landmarc.iter().flatten().for_each(|&v| d.add(v));
    let f7 = fig7::run(seeds);
    f7.points.iter().for_each(|p| d.add(p.non_boundary_error));
    let f8 = fig8::run(seeds);
    f8.points.iter().for_each(|p| d.add(p.non_boundary_error));
    d.add(f8.adaptive_error);
    d.0
}

/// The seed set of the traced run's regeneration: drawn from the workload
/// seed, disjoint from [`CHECK_SEEDS`].
fn seed_set(seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed ^ 0x5eed_5e75);
    let base = 1_000 + (rng.next_u64() % 1_000_000) * 16;
    (0..SEEDS_PER_SET as u64).map(|k| base + k).collect()
}

/// Checks the figure tables for [`CHECK_SEEDS`] against the reference.
pub fn check() -> Result<(), String> {
    let got = figure_set(&CHECK_SEEDS);
    if got == CHECK_DIGEST {
        Ok(())
    } else {
        Err(format!(
            "figure tables for seeds {CHECK_SEEDS:?} digest to {got:#018x}, \
             reference {CHECK_DIGEST:#018x}"
        ))
    }
}

/// Per-layer split of one figure-set regeneration.
pub struct ReproLayers {
    /// One cold regeneration of the figure set.
    pub repro_s: f64,
    /// Trial simulation through a fresh cache (Figure 6's fixtures).
    pub collect_s: f64,
    /// One-shot locate over those trials (VIRE and LANDMARC curves).
    pub locate_s: f64,
    /// Trials simulated by one full figure-set regeneration.
    pub trials_simulated: u64,
    /// Cache hit rate over that regeneration.
    pub cache_hit_rate: f64,
}

pub fn layers(seed: u64) -> ReproLayers {
    let seeds = seed_set(seed);
    let before = TrialCache::global().stats();
    let t = Instant::now();
    figure_set(&seeds);
    let repro_s = t.elapsed().as_secs_f64();
    let delta = TrialCache::global().stats().since(&before);

    let cold = TrialCache::new();
    let positions = Deployment::tracking_tags_fig2a();
    let t = Instant::now();
    let sets: Vec<TrialSet> = vire_env::presets::all_paper_environments()
        .iter()
        .map(|env| TrialSet::collect_in(&cold, env, &positions, &seeds))
        .collect();
    let collect_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for set in &sets {
        std::hint::black_box(set.mean_errors(&Vire::default()));
        std::hint::black_box(set.mean_errors(&Landmarc::default()));
    }
    let locate_s = t.elapsed().as_secs_f64();
    ReproLayers {
        repro_s,
        collect_s,
        locate_s,
        trials_simulated: delta.simulated,
        cache_hit_rate: delta.hit_rate(),
    }
}
