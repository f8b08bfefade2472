//! The benchmark's own arithmetic: percentiles, open-loop latency, fix
//! attribution across parked batches, and failure counting. Pure
//! functions, unit-tested below (`cargo test --manifest-path
//! perfbench/Cargo.toml`).

/// Samples that must lie strictly beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of the `q` percentile of `n` samples. The small
/// slack keeps `99.9 %` of 10 000 at rank 9 990 despite `99.9` having no
/// exact binary form.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice (`q` in percent).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// The highest percentile of the ladder 99.9 / 99 / 90 / 50 that still
/// has at least [`TAIL_SAMPLES`] samples beyond it, for `n` samples.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&q| beyond(n, q) >= TAIL_SAMPLES)
}

/// Samples strictly beyond the nearest-rank `q` percentile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// A sample set that reports the percentiles the benchmark names and
/// refuses a tail it cannot support.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `q` percentile, or an error naming the shortfall when fewer
    /// than [`TAIL_SAMPLES`] samples lie beyond it.
    pub fn pct(&mut self, q: f64, what: &str) -> Result<f64, String> {
        if highest_percentile(self.0.len()).is_none_or(|top| q > top) {
            return Err(format!(
                "{what}: p{q} needs {TAIL_SAMPLES} samples beyond it, have {} samples",
                self.0.len()
            ));
        }
        self.0.sort_by(f64::total_cmp);
        Ok(percentile(&self.0, q))
    }

    /// The `q` percentile of whatever is there, with no tail rule: for
    /// aggregating figures that were each taken with one (0 samples is an
    /// error).
    pub fn quantile(&mut self, q: f64, what: &str) -> Result<f64, String> {
        if self.0.is_empty() {
            return Err(format!("{what}: no samples"));
        }
        self.0.sort_by(f64::total_cmp);
        Ok(percentile(&self.0, q))
    }
}

/// Samples per window of [`window_percentiles`]: the fewest that keep
/// [`TAIL_SAMPLES`] beyond a p99.
pub const WINDOW: usize = 1_000;

/// Splits samples, in send order, into consecutive windows of at least
/// [`WINDOW`] samples (the last window takes the remainder) and returns
/// each window's `q` percentile. A stall of the shared host lands in one
/// or two windows; the median over windows is what the benchmark reports.
pub fn window_percentiles(ordered: &[f64], q: f64) -> Vec<f64> {
    let n = ordered.len() / WINDOW;
    (0..n)
        .map(|i| {
            let end = if i + 1 == n {
                ordered.len()
            } else {
                (i + 1) * WINDOW
            };
            let mut w = ordered[i * WINDOW..end].to_vec();
            w.sort_by(f64::total_cmp);
            percentile(&w, q)
        })
        .collect()
}

/// Where, in the distribution of a run's per-piece timings, a timing
/// figure is read: the 10th percentile of times (the 90th of rates), the
/// quiet end. On a shared host a neighbour's CPU steal lands in some
/// pieces — often for many seconds — and inflates them, a p99 many times
/// over; the pieces it misses still carry the stack's own cost.
pub const QUIET: f64 = 10.0;

/// Open-loop latency: measured from when the request was *due*, not from
/// when the generator got round to sending it, so a stall that delays
/// later sends is charged to them.
pub fn open_loop_latency(scheduled: f64, completed: f64) -> f64 {
    completed - scheduled
}

/// One acked batch of the open-loop phase, times in seconds on the load
/// generator's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckRecord {
    pub scheduled: f64,
    pub acked: f64,
    pub drove: bool,
}

/// Fix latency per batch: from the batch's scheduled send time to the
/// first ack at or after it that reports a drive. A `drove:false` ack
/// means the batch's readings were parked until a later drive, so its fix
/// waits for the next driving ack on the connection (acks are FIFO).
/// Batches with no later driving ack are unattributed and returned as a
/// count instead of a sample.
pub fn fix_latencies(acks: &[AckRecord]) -> (Vec<f64>, usize) {
    let mut out = vec![f64::NAN; acks.len()];
    let mut next_drive: Option<f64> = None;
    for (i, a) in acks.iter().enumerate().rev() {
        if a.drove {
            next_drive = Some(a.acked);
        }
        if let Some(t) = next_drive {
            out[i] = open_loop_latency(a.scheduled, t);
        }
    }
    let unattributed = out.iter().filter(|v| v.is_nan()).count();
    out.retain(|v| !v.is_nan());
    (out, unattributed)
}

/// Operations attempted and failed, by the benchmark's definition of a
/// failed operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

/// What the server said about one query, reduced to what the ledger
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    Fresh,
    Stale,
    Unknown,
    /// The query itself failed (transport or protocol error).
    Error,
}

impl Ledger {
    /// A batch fails when it errored or was acked with `lagged > 0`.
    pub fn batch(&mut self, errored: bool, lagged: u64) {
        self.attempted += 1;
        if errored || lagged > 0 {
            self.failed += 1;
        }
    }

    /// A query fails on an error, or when it answers `Unknown` for a
    /// lifetime that was already streamed and driven.
    pub fn query(&mut self, answer: Answer, streamed_and_driven: bool) {
        self.attempted += 1;
        if answer == Answer::Error || (answer == Answer::Unknown && streamed_and_driven) {
            self.failed += 1;
        }
    }

    /// One localization attempt (a drive result); errors fail.
    pub fn localize(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Protocol errors the server counted: each is a failed operation.
    pub fn protocol_errors(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_choice_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(10_000), Some(99.9));
        assert_eq!(highest_percentile(9_999), Some(99.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(99), Some(50.0));
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(19), None);
        assert_eq!(beyond(1_000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
    }

    #[test]
    fn samples_refuse_an_unsupported_tail() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(i as f64);
        }
        assert!(s.pct(99.0, "x").is_err());
        s.push(999.0);
        assert_eq!(s.pct(99.0, "x").unwrap(), 989.0);
        assert_eq!(s.quantile(50.0, "x").unwrap(), 499.0);
    }

    #[test]
    fn windows_hold_at_least_a_full_window_each() {
        let v: Vec<f64> = (0..2_999).map(f64::from).collect();
        let p = window_percentiles(&v, 50.0);
        // Two windows: 0..1000 and 1000..2999 (the remainder joins the last).
        assert_eq!(p, vec![499.0, 1999.0]);
        assert!(window_percentiles(&v[..999], 99.0).is_empty());
        // A burst confined to one window moves that window only.
        let mut burst = vec![1.0; 5_000];
        burst[1_000..1_100].iter_mut().for_each(|x| *x = 50.0);
        let p99 = window_percentiles(&burst, 99.0);
        assert_eq!(p99, vec![1.0, 50.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn open_loop_latency_counts_from_the_schedule() {
        // Due at 1.0, sent late at 1.4 because the generator stalled,
        // completed at 1.5: the request waited 0.5, not 0.1.
        let (due, _sent, done) = (1.0, 1.4, 1.5);
        assert!((open_loop_latency(due, done) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fix_latency_waits_for_the_next_driving_ack() {
        let acks = [
            AckRecord {
                scheduled: 0.0,
                acked: 0.1,
                drove: true,
            },
            AckRecord {
                scheduled: 1.0,
                acked: 1.1,
                drove: false,
            },
            AckRecord {
                scheduled: 2.0,
                acked: 2.2,
                drove: false,
            },
            AckRecord {
                scheduled: 3.0,
                acked: 3.3,
                drove: true,
            },
            AckRecord {
                scheduled: 4.0,
                acked: 4.1,
                drove: false,
            },
        ];
        let (lat, unattributed) = fix_latencies(&acks);
        assert_eq!(unattributed, 1);
        let want = [0.1, 2.3, 1.3, 0.3];
        assert_eq!(lat.len(), want.len());
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn failures_follow_the_definition() {
        let mut l = Ledger::default();
        l.batch(false, 0); // fine
        l.batch(false, 3); // lagged
        l.batch(true, 0); // errored
        l.query(Answer::Fresh, true);
        l.query(Answer::Stale, true);
        l.query(Answer::Unknown, false); // never seen: expected
        l.query(Answer::Unknown, true); // streamed and driven: failed
        l.query(Answer::Error, false);
        l.localize(true);
        l.localize(false);
        l.protocol_errors(2);
        assert_eq!(
            l,
            Ledger {
                attempted: 12,
                failed: 7
            }
        );
        assert!((l.share() - 7.0 / 12.0).abs() < 1e-12);
        assert_eq!(Ledger::default().share(), 0.0);
    }
}
