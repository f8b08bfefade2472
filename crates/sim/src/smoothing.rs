//! Middleware RSSI smoothing filters.
//!
//! Raw beacon readings carry per-measurement noise and the occasional
//! human-movement spike (paper §4.1: "such a factor should be avoided or
//! filtered out when designing the location sensing system"). The
//! middleware smooths each (tag, reader) stream with one of these filters
//! before the localization algorithms see it.

use std::collections::VecDeque;

/// Which filter the middleware applies per (tag, reader) stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SmoothingKind {
    /// No smoothing: the last raw reading wins.
    Raw,
    /// Arithmetic mean over a sliding window of `n` readings.
    MovingAverage(usize),
    /// Exponentially weighted moving average with weight `alpha` on the
    /// newest reading (`0 < alpha <= 1`).
    Ewma(f64),
    /// Median over a sliding window of `n` readings — robust to spikes.
    Median(usize),
}

impl vire_geom::Fingerprint for SmoothingKind {
    /// Stable tag byte plus the filter parameter (variants must append,
    /// never reorder, to keep on-disk fixture keys valid).
    fn fingerprint<H: std::hash::Hasher>(&self, h: &mut H) {
        match self {
            SmoothingKind::Raw => h.write_u8(0),
            SmoothingKind::MovingAverage(n) => {
                h.write_u8(1);
                n.fingerprint(h);
            }
            SmoothingKind::Ewma(alpha) => {
                h.write_u8(2);
                alpha.fingerprint(h);
            }
            SmoothingKind::Median(n) => {
                h.write_u8(3);
                n.fingerprint(h);
            }
        }
    }
}

impl Default for SmoothingKind {
    /// Median over 5 readings: robust and low-latency at a 2 s beacon
    /// interval (10 s to fill the window).
    fn default() -> Self {
        SmoothingKind::Median(5)
    }
}

/// Why a [`SmoothingKind`] carries parameters no filter can run with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SmoothingError {
    /// A sliding-window filter was configured with a zero-length window.
    ZeroWindow,
    /// EWMA weight outside `(0, 1]` (carries the offending alpha).
    InvalidAlpha(f64),
}

impl std::fmt::Display for SmoothingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmoothingError::ZeroWindow => write!(f, "window must be positive"),
            SmoothingError::InvalidAlpha(alpha) => {
                write!(f, "alpha must be within (0, 1], got {alpha}")
            }
        }
    }
}

impl std::error::Error for SmoothingError {}

impl SmoothingKind {
    /// Instantiates the filter state, rejecting invalid parameters (zero
    /// window, alpha outside `(0, 1]`) instead of panicking.
    pub fn try_build(self) -> Result<Filter, SmoothingError> {
        match self {
            SmoothingKind::Raw => Ok(Filter::Raw { last: None }),
            SmoothingKind::MovingAverage(n) => {
                if n == 0 {
                    return Err(SmoothingError::ZeroWindow);
                }
                Ok(Filter::MovingAverage {
                    window: VecDeque::with_capacity(n),
                    cap: n,
                })
            }
            SmoothingKind::Ewma(alpha) => {
                if !(alpha > 0.0 && alpha <= 1.0) {
                    return Err(SmoothingError::InvalidAlpha(alpha));
                }
                Ok(Filter::Ewma { alpha, state: None })
            }
            SmoothingKind::Median(n) => {
                if n == 0 {
                    return Err(SmoothingError::ZeroWindow);
                }
                let mut buf = Vec::with_capacity(2 * n);
                buf.resize(n, 0.0);
                Ok(Filter::Median {
                    buf,
                    oldest: 0,
                    cap: n,
                })
            }
        }
    }

    /// Instantiates the filter state.
    ///
    /// # Panics
    /// Panics on invalid parameters (zero window, alpha outside `(0, 1]`);
    /// use [`SmoothingKind::try_build`] to handle them as values.
    pub fn build(self) -> Filter {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Filter state for one (tag, reader) stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Filter {
    /// See [`SmoothingKind::Raw`].
    Raw {
        /// Last reading.
        last: Option<f64>,
    },
    /// See [`SmoothingKind::MovingAverage`].
    MovingAverage {
        /// Sliding window.
        window: VecDeque<f64>,
        /// Window capacity.
        cap: usize,
    },
    /// See [`SmoothingKind::Ewma`].
    Ewma {
        /// Newest-reading weight.
        alpha: f64,
        /// Current smoothed value.
        state: Option<f64>,
    },
    /// See [`SmoothingKind::Median`].
    Median {
        /// One allocation of `2 * cap` values: `buf[..cap]` is the window
        /// ring (only the first `fill` slots are live while it fills) and
        /// `buf[cap..]` holds the window's values in ascending order,
        /// equal values (`-0.0` and `0.0` included) in arrival order —
        /// exactly what a stable sort of the window yields, kept up to
        /// date incrementally.
        buf: Vec<f64>,
        /// Ring index of the oldest reading once the window is full.
        oldest: usize,
        /// Window capacity.
        cap: usize,
    },
}

impl Filter {
    /// Feeds one raw reading. Allocation-free: window filters recycle
    /// their buffers, and the median keeps its window sorted as it slides
    /// instead of sorting a copy per [`Filter::value`].
    ///
    /// Readings must be finite (transports reject the rest); a NaN never
    /// panics, but leaves the median's order unspecified.
    pub fn update(&mut self, x: f64) {
        match self {
            Filter::Raw { last } => *last = Some(x),
            Filter::MovingAverage { window, cap } => {
                if window.len() == *cap {
                    window.pop_front();
                }
                window.push_back(x);
            }
            Filter::Median { buf, oldest, cap } => {
                let cap = *cap;
                if buf.len() < 2 * cap {
                    let fill = buf.len() - cap;
                    buf[fill] = x;
                    // After every value comparing <= x: the newest of
                    // equal values goes last, as a stable sort places it.
                    let at = buf[cap..].partition_point(|v| *v <= x);
                    buf.insert(cap + at, x);
                } else {
                    let gone = std::mem::replace(&mut buf[*oldest], x);
                    *oldest = (*oldest + 1) % cap;
                    let sorted = &mut buf[cap..];
                    // Equal values sit in arrival order and `gone` was the
                    // window's first arrival, so its entry is the first
                    // one with its bits. Overwrite it with `x` and slide
                    // `x` to its stable-sort place in one pass.
                    let mut i = sorted
                        .iter()
                        .position(|v| v.to_bits() == gone.to_bits())
                        .expect("every window value is in the sorted half");
                    while i + 1 < sorted.len() && sorted[i + 1] <= x {
                        sorted[i] = sorted[i + 1];
                        i += 1;
                    }
                    while i > 0 && sorted[i - 1] > x {
                        sorted[i] = sorted[i - 1];
                        i -= 1;
                    }
                    sorted[i] = x;
                }
            }
            Filter::Ewma { alpha, state } => {
                *state = Some(match *state {
                    None => x,
                    Some(s) => *alpha * x + (1.0 - *alpha) * s,
                });
            }
        }
    }

    /// Returns the filter to its freshly built state in place, keeping
    /// its buffers: a tag slot's next lifetime reuses the previous
    /// lifetime's filters without allocating.
    pub fn reset(&mut self) {
        match self {
            Filter::Raw { last } => *last = None,
            Filter::MovingAverage { window, .. } => window.clear(),
            Filter::Ewma { state, .. } => *state = None,
            Filter::Median { buf, oldest, cap } => {
                buf.truncate(*cap);
                buf.fill(0.0);
                *oldest = 0;
            }
        }
    }

    /// Current smoothed value, or `None` before the first reading. O(1)
    /// for the median, whose window is kept sorted.
    pub fn value(&self) -> Option<f64> {
        match self {
            Filter::Raw { last } => *last,
            Filter::Ewma { state, .. } => *state,
            Filter::MovingAverage { window, .. } => {
                if window.is_empty() {
                    None
                } else {
                    Some(window.iter().sum::<f64>() / window.len() as f64)
                }
            }
            Filter::Median { buf, cap, .. } => {
                let sorted = &buf[*cap..];
                let mid = sorted.len() / 2;
                match sorted.len() {
                    0 => None,
                    n if n % 2 == 1 => Some(sorted[mid]),
                    _ => Some((sorted[mid - 1] + sorted[mid]) / 2.0),
                }
            }
        }
    }

    /// Number of readings consumed so far that still influence the value
    /// (window length; 1 for Raw/EWMA once primed).
    pub fn fill(&self) -> usize {
        match self {
            Filter::Raw { last } => usize::from(last.is_some()),
            Filter::Ewma { state, .. } => usize::from(state.is_some()),
            Filter::MovingAverage { window, .. } => window.len(),
            Filter::Median { buf, cap, .. } => buf.len() - cap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_tracks_last_value() {
        let mut f = SmoothingKind::Raw.build();
        assert_eq!(f.value(), None);
        f.update(-70.0);
        f.update(-75.0);
        assert_eq!(f.value(), Some(-75.0));
        assert_eq!(f.fill(), 1);
    }

    #[test]
    fn moving_average_averages_the_window() {
        let mut f = SmoothingKind::MovingAverage(3).build();
        for x in [-70.0, -72.0, -74.0] {
            f.update(x);
        }
        assert_eq!(f.value(), Some(-72.0));
        // Window slides: oldest (-70) drops.
        f.update(-76.0);
        assert_eq!(f.value(), Some(-74.0));
        assert_eq!(f.fill(), 3);
    }

    #[test]
    fn ewma_converges_geometrically() {
        let mut f = SmoothingKind::Ewma(0.5).build();
        f.update(-80.0);
        assert_eq!(f.value(), Some(-80.0)); // primes with first value
        f.update(-70.0);
        assert_eq!(f.value(), Some(-75.0));
        f.update(-70.0);
        assert_eq!(f.value(), Some(-72.5));
    }

    #[test]
    fn median_rejects_single_spike() {
        let mut f = SmoothingKind::Median(5).build();
        for x in [-70.0, -70.5, -99.0 /* spike */, -70.2, -69.8] {
            f.update(x);
        }
        let v = f.value().unwrap();
        assert!(
            (-71.0..=-69.0).contains(&v),
            "median {v} should ignore the spike"
        );
    }

    #[test]
    fn mean_is_dragged_by_spike_median_is_not() {
        let feed = [-70.0, -70.0, -95.0, -70.0, -70.0];
        let mut mean = SmoothingKind::MovingAverage(5).build();
        let mut med = SmoothingKind::Median(5).build();
        for x in feed {
            mean.update(x);
            med.update(x);
        }
        assert_eq!(med.value(), Some(-70.0));
        assert!(mean.value().unwrap() < -74.0);
    }

    #[test]
    fn median_of_even_window_interpolates() {
        let mut f = SmoothingKind::Median(4).build();
        for x in [-70.0, -72.0, -74.0, -76.0] {
            f.update(x);
        }
        assert_eq!(f.value(), Some(-73.0));
    }

    #[test]
    fn empty_filters_have_no_value() {
        for kind in [
            SmoothingKind::Raw,
            SmoothingKind::MovingAverage(3),
            SmoothingKind::Ewma(0.3),
            SmoothingKind::Median(3),
        ] {
            assert_eq!(kind.build().value(), None);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_panics() {
        SmoothingKind::Ewma(1.5).build();
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        SmoothingKind::Median(0).build();
    }

    #[test]
    fn try_build_reports_invalid_parameters_as_values() {
        assert_eq!(
            SmoothingKind::MovingAverage(0).try_build().unwrap_err(),
            SmoothingError::ZeroWindow
        );
        assert_eq!(
            SmoothingKind::Median(0).try_build().unwrap_err(),
            SmoothingError::ZeroWindow
        );
        assert_eq!(
            SmoothingKind::Ewma(0.0).try_build().unwrap_err(),
            SmoothingError::InvalidAlpha(0.0)
        );
        assert_eq!(
            SmoothingKind::Ewma(1.5).try_build().unwrap_err(),
            SmoothingError::InvalidAlpha(1.5)
        );
        assert!(SmoothingKind::Ewma(f64::NAN).try_build().is_err());
        // Valid parameters still build.
        assert!(SmoothingKind::Raw.try_build().is_ok());
        assert!(SmoothingKind::MovingAverage(1).try_build().is_ok());
        assert!(SmoothingKind::Ewma(1.0).try_build().is_ok());
        // Error messages match what `build` panics with.
        assert_eq!(
            SmoothingError::ZeroWindow.to_string(),
            "window must be positive"
        );
        assert!(SmoothingError::InvalidAlpha(2.0).to_string().contains("2"));
    }

    #[test]
    fn window_of_one_tracks_last_value_like_raw() {
        for kind in [SmoothingKind::MovingAverage(1), SmoothingKind::Median(1)] {
            let mut f = kind.build();
            let mut raw = SmoothingKind::Raw.build();
            for x in [-70.0, -90.5, -61.25] {
                f.update(x);
                raw.update(x);
                assert_eq!(f.value(), raw.value(), "{kind:?} window 1 == Raw");
                assert_eq!(f.fill(), 1);
            }
        }
    }

    #[test]
    fn exactly_full_window_then_one_more_slides() {
        let mut f = SmoothingKind::MovingAverage(3).build();
        // One short of full: averages what's there.
        f.update(-70.0);
        f.update(-74.0);
        assert_eq!(f.fill(), 2);
        assert_eq!(f.value(), Some(-72.0));
        // Exactly full.
        f.update(-78.0);
        assert_eq!(f.fill(), 3);
        assert_eq!(f.value(), Some(-74.0));
        // One past full: the window slides, fill stays at capacity.
        f.update(-82.0);
        assert_eq!(f.fill(), 3);
        assert_eq!(f.value(), Some(-78.0));
    }

    #[test]
    fn reset_restores_the_freshly_built_filter() {
        for kind in [
            SmoothingKind::Raw,
            SmoothingKind::MovingAverage(3),
            SmoothingKind::Ewma(0.3),
            SmoothingKind::Median(3),
        ] {
            let mut f = kind.build();
            for x in [-70.0, -90.5, -61.25, -75.0] {
                f.update(x);
            }
            f.reset();
            assert_eq!(f, kind.build(), "{kind:?}");
            // And it smooths a new stream exactly like a fresh filter.
            let mut fresh = kind.build();
            for x in [-66.0, -68.5] {
                f.update(x);
                fresh.update(x);
                assert_eq!(f.value().map(f64::to_bits), fresh.value().map(f64::to_bits));
            }
        }
    }

    #[test]
    fn ewma_alpha_one_equals_raw() {
        let mut ewma = SmoothingKind::Ewma(1.0).build();
        let mut raw = SmoothingKind::Raw.build();
        for x in [-70.0, -95.0, -62.5, -80.0] {
            ewma.update(x);
            raw.update(x);
            assert_eq!(ewma.value(), raw.value(), "alpha = 1 keeps no history");
        }
    }
}
