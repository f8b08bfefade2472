//! Property-based tests for the simulation layer.

use proptest::prelude::*;
use vire_sim::smoothing::SmoothingKind;

fn readings() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-105.0..-55.0f64, 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn all_filters_stay_within_input_range(xs in readings()) {
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for kind in [
            SmoothingKind::Raw,
            SmoothingKind::MovingAverage(5),
            SmoothingKind::Ewma(0.3),
            SmoothingKind::Median(5),
        ] {
            let mut f = kind.build();
            for &x in &xs {
                f.update(x);
                let v = f.value().expect("primed after first update");
                prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9, "{kind:?}: {v} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    fn constant_input_is_a_fixed_point(x in -100.0..-60.0f64, n in 1usize..20) {
        for kind in [
            SmoothingKind::Raw,
            SmoothingKind::MovingAverage(4),
            SmoothingKind::Ewma(0.5),
            SmoothingKind::Median(3),
        ] {
            let mut f = kind.build();
            for _ in 0..n {
                f.update(x);
            }
            prop_assert!((f.value().unwrap() - x).abs() < 1e-12, "{kind:?}");
        }
    }

    #[test]
    fn median_ignores_a_minority_of_spikes(
        base in -80.0..-70.0f64,
        spike in -40.0..-20.0f64,
    ) {
        // 2 spikes inside a window of 5 cannot move the median.
        let mut f = SmoothingKind::Median(5).build();
        for x in [base, base + 0.1, spike, base - 0.1, spike] {
            f.update(x);
        }
        let v = f.value().unwrap();
        prop_assert!((v - base).abs() < 0.2, "median {v} dragged by spikes");
    }

    #[test]
    fn moving_average_window_really_slides(
        head in prop::collection::vec(-100.0..-60.0f64, 3),
        tail in prop::collection::vec(-100.0..-60.0f64, 3),
    ) {
        // After 3 more updates than the window holds, the head values are
        // forgotten entirely.
        let mut f = SmoothingKind::MovingAverage(3).build();
        for &x in head.iter().chain(&tail) {
            f.update(x);
        }
        let expect = tail.iter().sum::<f64>() / 3.0;
        prop_assert!((f.value().unwrap() - expect).abs() < 1e-9);
    }

    #[test]
    fn ewma_is_a_convex_combination(xs in readings(), alpha in 0.05..1.0f64) {
        let mut f = SmoothingKind::Ewma(alpha).build();
        let mut prev: Option<f64> = None;
        for &x in &xs {
            f.update(x);
            let v = f.value().unwrap();
            if let Some(p) = prev {
                let lo = p.min(x) - 1e-9;
                let hi = p.max(x) + 1e-9;
                prop_assert!(v >= lo && v <= hi, "EWMA escaped [{lo}, {hi}]: {v}");
            }
            prev = Some(v);
        }
    }

    #[test]
    fn filter_fill_never_exceeds_window(xs in readings()) {
        let mut f = SmoothingKind::Median(7).build();
        for (k, &x) in xs.iter().enumerate() {
            f.update(x);
            prop_assert!(f.fill() <= 7);
            prop_assert_eq!(f.fill(), (k + 1).min(7));
        }
    }
}

/// The sort-based median the incremental filter replaced: copy the
/// window, stable-sort it by `partial_cmp`, take the middle (or the mean
/// of the middle two).
fn sorted_copy_median(window: &[f64]) -> f64 {
    let mut sorted = window.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Readings drawn mostly from a tiny pool — so windows hold duplicates
/// and both signed zeros — mixed with arbitrary RSSI-range values.
fn median_feed() -> impl Strategy<Value = Vec<f64>> {
    const POOL: [f64; 7] = [-0.0, 0.0, -70.0, -70.5, -71.0, -90.0, 3.25];
    let reading =
        (0usize..10, -110.0..10.0f64).prop_map(|(k, x)| POOL.get(k).copied().unwrap_or(x));
    prop::collection::vec(reading, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The incrementally sorted median window is `to_bits`-identical to
    /// sorting a copy of the window at every step, for every window size
    /// 1..=8 (odd and even), with duplicates and signed zeros.
    #[test]
    fn incremental_median_matches_sorted_copy(xs in median_feed(), n in 1usize..=8) {
        let mut f = SmoothingKind::Median(n).build();
        for (i, &x) in xs.iter().enumerate() {
            f.update(x);
            let window = &xs[(i + 1).saturating_sub(n)..=i];
            let expect = sorted_copy_median(window);
            let got = f.value().expect("primed after first update");
            prop_assert_eq!(
                got.to_bits(), expect.to_bits(),
                "window {:?}: incremental {} != sorted copy {}", window, got, expect
            );
            prop_assert_eq!(f.fill(), window.len());
        }
    }
}
