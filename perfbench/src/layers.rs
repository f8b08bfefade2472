//! Per-layer metrics from the traced run's spans, and the reconciliation
//! of those spans against the handling and drive spans that contain them.

use crate::stats::Samples;
use crate::trace::{Span, NONE, SYNC_PATCHED, SYNC_REBUILT};
use std::collections::HashMap;

/// Children of a batch's handling span must cover at least this share of
/// its duration, summed over the run; the rest is loop glue between the
/// timed calls plus the timer reads themselves.
pub const COVERAGE_TOLERANCE: f64 = 0.05;

/// Slack for a child span poking out of its parent: two timer reads.
const NEST_SLACK_NS: u64 = 200;

/// Sums and samples folded out of the replay's spans.
#[derive(Debug, Default)]
pub struct Folded {
    pub codec_ns: u64,
    pub route_ns: u64,
    pub front_ns: u64,
    pub accept_ns: u64,
    pub accept_events: u64,
    pub handle_ns: u64,
    pub children_ns: u64,
    /// Handling nanoseconds per batch id.
    pub handle_by_batch: HashMap<u32, u64>,
    pub drive_us: Samples,
    pub drive_self_us: Samples,
    pub drive_tags: u64,
    pub drives: u64,
    pub sync_us: Samples,
    pub syncs: u64,
    pub patched: u64,
    pub patched_cells: u64,
    pub rebuilt: u64,
    pub locate_us_per_tag: Samples,
    pub locate_batch_us: Samples,
    /// Reconciliation failures (empty when every span nests and the
    /// coverage holds).
    pub problems: Vec<String>,
}

impl Folded {
    pub fn coverage(&self) -> f64 {
        self.children_ns as f64 / self.handle_ns.max(1) as f64
    }
}

pub fn fold(spans: &[Span]) -> Folded {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut f = Folded::default();
    // Sync + locate time per drive span id.
    let mut drive_children: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        if s.parent != NONE {
            match by_id.get(&s.parent) {
                Some(p) if s.start + NEST_SLACK_NS >= p.start && s.end <= p.end + NEST_SLACK_NS => {
                }
                Some(p) => f.problems.push(format!(
                    "span {} `{}` [{}, {}] escapes its parent `{}` [{}, {}]",
                    s.id, s.name, s.start, s.end, p.name, p.start, p.end
                )),
                None => f
                    .problems
                    .push(format!("span {} has no parent {}", s.id, s.parent)),
            }
        }
        let in_batch = s.parent != NONE && by_id.get(&s.parent).is_some_and(|p| p.name == "handle");
        if in_batch {
            f.children_ns += s.ns();
        }
        match s.name {
            "handle" => {
                f.handle_ns += s.ns();
                f.handle_by_batch.insert(s.batch, s.ns());
            }
            "codec" => f.codec_ns += s.ns(),
            "route" => f.route_ns += s.ns(),
            "front" => f.front_ns += s.ns(),
            "accept" => {
                f.accept_ns += s.ns();
                f.accept_events += s.count as u64;
            }
            "drive" => {
                f.drives += 1;
                f.drive_tags += s.count as u64;
                f.drive_us.push(s.ns() as f64 / 1e3);
            }
            "sync" => {
                f.syncs += 1;
                f.sync_us.push(s.ns() as f64 / 1e3);
                match s.kind {
                    SYNC_PATCHED => {
                        f.patched += 1;
                        f.patched_cells += s.count as u64;
                    }
                    SYNC_REBUILT => f.rebuilt += 1,
                    _ => {}
                }
                *drive_children.entry(s.parent).or_default() += s.ns();
            }
            "locate" => {
                f.locate_batch_us.push(s.ns() as f64 / 1e3);
                if s.count > 0 {
                    f.locate_us_per_tag
                        .push(s.ns() as f64 / 1e3 / s.count as f64);
                }
                *drive_children.entry(s.parent).or_default() += s.ns();
            }
            _ => {}
        }
    }
    for s in spans.iter().filter(|s| s.name == "drive") {
        let inner = drive_children.get(&s.id).copied().unwrap_or(0);
        if inner > s.ns() + NEST_SLACK_NS {
            f.problems.push(format!(
                "drive span {}: sync + locate {inner} ns exceed the drive's {} ns",
                s.id,
                s.ns()
            ));
        }
        f.drive_self_us
            .push(s.ns().saturating_sub(inner) as f64 / 1e3);
    }
    if f.coverage() < 1.0 - COVERAGE_TOLERANCE || f.coverage() > 1.0 {
        f.problems.push(format!(
            "handling spans covered {:.4} by their children; tolerance {COVERAGE_TOLERANCE}",
            f.coverage()
        ));
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            batch: 0,
            name,
            start,
            end,
            count: 1,
            kind: 0,
        }
    }

    #[test]
    fn self_time_is_drive_minus_sync_and_locate() {
        let spans = [
            span(0, NONE, "handle", 0, 1_000_000),
            span(1, 0, "codec", 0, 100_000),
            span(2, 0, "drive", 100_000, 1_000_000),
            span(3, 2, "sync", 200_000, 300_000),
            span(4, 2, "locate", 300_000, 700_000),
        ];
        let mut f = fold(&spans);
        assert!(f.problems.is_empty(), "{:?}", f.problems);
        assert_eq!(f.drive_self_us.quantile(50.0, "self").unwrap(), 400.0);
        assert!((f.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uncovered_handling_and_escaping_children_are_reported() {
        let spans = [
            span(0, NONE, "handle", 0, 1_000_000),
            span(1, 0, "codec", 0, 100_000),
            span(2, 0, "drive", 100_000, 200_000),
            span(3, 2, "locate", 150_000, 900_000),
        ];
        let f = fold(&spans);
        assert_eq!(f.problems.len(), 3, "{:?}", f.problems);
    }
}
