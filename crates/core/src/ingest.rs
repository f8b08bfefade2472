//! The ingest staging buffer and the wire-format rules every transport
//! shares.
//!
//! A real deployment's readers emit beacon events far faster than the
//! localization rate, and a burst of gateway traffic can deliver
//! thousands of readings between two drives. Every one of them matters:
//! the middleware smooths each `(tag lifetime, reader)` stream over a
//! window of *readings* (the default is a five-reading median), so the
//! serving path hands every accepted reading to smoothing, in order. The
//! smoothing table is the only place where readings of one key meet.
//!
//! [`IngestFrontEnd`] is the order-preserving, lossless staging buffer
//! where readings wait for the next drive: [`IngestFrontEnd::accept`]
//! appends, [`IngestFrontEnd::drain`] swaps the filled buffer out for an
//! empty one, and [`IngestFrontEnd::recycle`] hands a drained buffer back
//! so the steady state allocates nothing (a double-buffered `Vec` swap).
//! Nothing is merged, dropped or reordered, so
//! `accepted == delivered + pending` always holds.
//!
//! The wire format is the `vire-sim` trace schema (versions 1 and 2):
//! [`parse_wire`] takes either a full trace object or a bare array of
//! readings, so captured traces and live gateway payloads share one code
//! path. [`validate_event`] is the one finiteness rule for every
//! encoding — the JSON parser applies it per reading, and binary
//! transports apply it to every decoded event before accepting any.

use std::fmt;

use crate::service::TagKey;

/// Newest wire schema version accepted ([`vire-sim`'s `TRACE_VERSION`]
/// — kept equal by a cross-crate test there).
pub const WIRE_VERSION: u32 = 2;

/// Oldest wire schema version accepted (v1 readings carry no tag
/// generations and parse as generation 0).
pub const WIRE_MIN_VERSION: u32 = 1;

/// One beacon event on the wire: a single tag/reader RSSI observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BeaconEvent {
    /// Beacon time, seconds.
    pub time: f64,
    /// Tag lifetime (slot index + generation).
    pub tag: TagKey,
    /// Reader identifier (dense index).
    pub reader: u32,
    /// Raw RSSI, dBm.
    pub rssi: f64,
}

/// Shape of the staging buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestConfig {
    /// Readings preallocated per buffer; buffers grow past it as needed
    /// and keep their capacity across drains.
    pub initial_capacity: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            initial_capacity: 64,
        }
    }
}

/// Wire-format rejection from [`parse_wire`] or [`validate_event`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// The payload is not valid JSON, or not the expected shape.
    Json(String),
    /// The trace schema version is outside the supported range.
    UnsupportedVersion {
        /// Version the payload declared.
        found: u32,
        /// Oldest accepted version.
        min: u32,
        /// Newest accepted version.
        max: u32,
    },
    /// A v1 payload carried a tag generation (v1 predates generations).
    GenerationInV1 {
        /// Index of the offending reading.
        index: usize,
    },
    /// A reading carried a non-finite number.
    NotFinite {
        /// Which field was non-finite.
        field: &'static str,
        /// Index of the offending reading.
        index: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Json(msg) => write!(f, "malformed ingest payload: {msg}"),
            WireError::UnsupportedVersion { found, min, max } => {
                write!(
                    f,
                    "unsupported wire version {found} (accepted: {min}..={max})"
                )
            }
            WireError::GenerationInV1 { index } => {
                write!(f, "reading {index} carries a generation in a v1 payload")
            }
            WireError::NotFinite { field, index } => {
                write!(f, "reading {index} has non-finite {field}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// The validation rule every encoding applies to a decoded event: time
/// and RSSI must be finite (a NaN would poison the key's smoothing
/// window). `index` is the event's position in its payload, for the
/// error.
pub fn validate_event(index: usize, e: &BeaconEvent) -> Result<(), WireError> {
    if !e.time.is_finite() {
        return Err(WireError::NotFinite {
            field: "time",
            index,
        });
    }
    if !e.rssi.is_finite() {
        return Err(WireError::NotFinite {
            field: "rssi",
            index,
        });
    }
    Ok(())
}

/// Cumulative staging accounting: `accepted == delivered +`
/// [`IngestFrontEnd::pending`] at every point — nothing is ever merged
/// or dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Events accepted into the buffer.
    pub accepted: u64,
    /// Events handed out by drains.
    pub delivered: u64,
    /// Drain calls.
    pub batches: u64,
}

/// One drained batch: every reading accepted since the previous drain,
/// in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestBatch {
    /// The readings, oldest first.
    pub readings: Vec<BeaconEvent>,
}

/// Lossless, order-preserving staging buffer (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct IngestFrontEnd {
    /// Readings accepted since the last drain.
    pending: Vec<BeaconEvent>,
    /// An empty buffer with retained capacity, swapped in at drain.
    spare: Vec<BeaconEvent>,
    stats: IngestStats,
}

impl IngestFrontEnd {
    /// Builds an empty staging buffer.
    pub fn new(config: IngestConfig) -> Self {
        IngestFrontEnd {
            pending: Vec::with_capacity(config.initial_capacity),
            spare: Vec::with_capacity(config.initial_capacity),
            stats: IngestStats::default(),
        }
    }

    /// Appends a burst of already-decoded beacon events; returns how many
    /// were appended.
    pub fn accept(&mut self, events: impl IntoIterator<Item = BeaconEvent>) -> usize {
        let before = self.pending.len();
        self.pending.extend(events);
        let n = self.pending.len() - before;
        self.stats.accepted += n as u64;
        n
    }

    /// Takes everything accepted since the last drain, in arrival order,
    /// swapping in the spare buffer. Pass the batch back to
    /// [`IngestFrontEnd::recycle`] to reuse its allocation.
    pub fn drain(&mut self) -> IngestBatch {
        let spare = std::mem::take(&mut self.spare);
        let readings = std::mem::replace(&mut self.pending, spare);
        self.stats.batches += 1;
        self.stats.delivered += readings.len() as u64;
        IngestBatch { readings }
    }

    /// Returns a drained batch's buffer for the next drain to swap in.
    pub fn recycle(&mut self, batch: IngestBatch) {
        let mut buffer = batch.readings;
        if buffer.capacity() > self.spare.capacity() {
            buffer.clear();
            self.spare = buffer;
        }
    }

    /// Readings accepted but not yet drained.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Cumulative accounting across all drains.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }
}

/// Adapter: the vendored serde has no blanket `Deserialize` for `Value`,
/// so wire parsing keeps the raw tree and walks it by hand (optional
/// fields and version gating need more than the derive offers anyway).
struct RawValue(serde::Value);

impl serde::Deserialize for RawValue {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(RawValue(v.clone()))
    }
}

/// Parses a wire payload (trace object or bare readings array) into
/// beacon events, validating version and finiteness. Public so
/// transports can decode-and-validate *before* accepting into a front
/// end (a rejected payload must never strand accepted events).
pub fn parse_wire(json: &str) -> Result<Vec<BeaconEvent>, WireError> {
    parse_wire_versioned(json).map(|(_, events)| events)
}

/// [`parse_wire`], but also returns the payload's wire version (a bare
/// readings array carries no version field and counts as the current
/// [`WIRE_VERSION`]). Transports that pin a version per connection use
/// this to reject payloads newer than what the peer negotiated.
pub fn parse_wire_versioned(json: &str) -> Result<(u32, Vec<BeaconEvent>), WireError> {
    let RawValue(root) = serde_json::from_str(json).map_err(|e| WireError::Json(e.to_string()))?;
    let (version, readings) = match &root {
        serde::Value::Array(items) => (WIRE_VERSION, items.as_slice()),
        serde::Value::Object(_) => {
            let version = match root.get("version") {
                Some(v) => field_u32(v, "version")?,
                None => return Err(WireError::Json("missing field `version`".into())),
            };
            if !(WIRE_MIN_VERSION..=WIRE_VERSION).contains(&version) {
                return Err(WireError::UnsupportedVersion {
                    found: version,
                    min: WIRE_MIN_VERSION,
                    max: WIRE_VERSION,
                });
            }
            let readings = match root.get("readings") {
                Some(serde::Value::Array(items)) => items.as_slice(),
                Some(_) => return Err(WireError::Json("`readings` must be an array".into())),
                None => return Err(WireError::Json("missing field `readings`".into())),
            };
            (version, readings)
        }
        _ => {
            return Err(WireError::Json(
                "payload must be a trace object or a readings array".into(),
            ))
        }
    };

    let mut events = Vec::with_capacity(readings.len());
    for (index, r) in readings.iter().enumerate() {
        let time = field_f64(r, "time", index)?;
        let tag = field_u32_at(r, "tag", index)?;
        let reader = field_u32_at(r, "reader", index)?;
        let rssi = field_f64(r, "rssi", index)?;
        let generation = match r.get("generation") {
            Some(g) => {
                if version < 2 {
                    return Err(WireError::GenerationInV1 { index });
                }
                field_u32(g, "generation")?
            }
            None => 0,
        };
        let event = BeaconEvent {
            time,
            tag: TagKey::new(tag, generation),
            reader,
            rssi,
        };
        validate_event(index, &event)?;
        events.push(event);
    }
    Ok((version, events))
}

fn field_u32(v: &serde::Value, name: &str) -> Result<u32, WireError> {
    use serde::Deserialize as _;
    u32::from_value(v).map_err(|e| WireError::Json(format!("field `{name}`: {e}")))
}

fn field_u32_at(r: &serde::Value, name: &'static str, index: usize) -> Result<u32, WireError> {
    let v = r
        .get(name)
        .ok_or_else(|| WireError::Json(format!("reading {index}: missing field `{name}`")))?;
    field_u32(v, name)
}

fn field_f64(r: &serde::Value, name: &'static str, index: usize) -> Result<f64, WireError> {
    use serde::Deserialize as _;
    let v = r
        .get(name)
        .ok_or_else(|| WireError::Json(format!("reading {index}: missing field `{name}`")))?;
    f64::from_value(v).map_err(|e| WireError::Json(format!("reading {index} `{name}`: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, tag: u32, generation: u32, reader: u32, rssi: f64) -> BeaconEvent {
        BeaconEvent {
            time,
            tag: TagKey::new(tag, generation),
            reader,
            rssi,
        }
    }

    #[test]
    fn drain_delivers_every_reading_in_arrival_order() {
        let mut front = IngestFrontEnd::new(IngestConfig::default());
        let burst = [
            ev(0.0, 1, 0, 0, -60.0),
            ev(0.1, 1, 0, 1, -62.0),
            ev(0.2, 1, 0, 0, -61.0), // same key again: kept, not merged
            ev(0.3, 2, 0, 0, -70.0),
            ev(0.4, 1, 0, 0, -59.5),
        ];
        assert_eq!(front.accept(burst), 5);
        assert_eq!(front.pending(), 5);
        let batch = front.drain();
        assert_eq!(batch.readings, burst.to_vec());
        assert_eq!(front.pending(), 0);
        assert!(front.drain().readings.is_empty(), "drained");
    }

    #[test]
    fn accounting_balances_at_every_point() {
        let mut front = IngestFrontEnd::new(IngestConfig::default());
        for n in 0..7u32 {
            front.accept((0..n).map(|k| ev(k as f64, k % 3, 0, 0, -60.0)));
            let stats = front.stats();
            assert_eq!(stats.accepted, stats.delivered + front.pending() as u64);
            if n % 2 == 1 {
                let batch = front.drain();
                front.recycle(batch);
            }
        }
        front.drain();
        let stats = front.stats();
        assert_eq!(stats.accepted, stats.delivered);
        assert_eq!(stats.accepted, (0..7u64).sum());
    }

    #[test]
    fn recycled_buffers_are_swapped_back_in() {
        let mut front = IngestFrontEnd::new(IngestConfig {
            initial_capacity: 0,
        });
        let burst = |front: &mut IngestFrontEnd| {
            front.accept((0..100).map(|k| ev(k as f64, 1, 0, 0, -60.0)));
        };
        // Warm both buffers up, then check that drains alternate between
        // the same two allocations.
        burst(&mut front);
        let a = front.drain();
        let a_ptr = a.readings.as_ptr();
        front.recycle(a);
        burst(&mut front);
        let b = front.drain();
        let b_ptr = b.readings.as_ptr();
        front.recycle(b);
        for round in 0..4 {
            burst(&mut front);
            let batch = front.drain();
            let expect = if round % 2 == 0 { a_ptr } else { b_ptr };
            assert_eq!(batch.readings.as_ptr(), expect, "round {round}");
            assert_eq!(batch.readings.len(), 100);
            front.recycle(batch);
        }
    }

    #[test]
    fn distinct_generations_stay_distinct_events() {
        let mut front = IngestFrontEnd::new(IngestConfig::default());
        front.accept([ev(0.0, 1, 0, 0, -60.0), ev(0.1, 1, 1, 0, -65.0)]);
        let batch = front.drain();
        assert_eq!(batch.readings[0].tag, TagKey::new(1, 0));
        assert_eq!(batch.readings[1].tag, TagKey::new(1, 1));
    }

    #[test]
    fn parse_wire_bare_array_and_trace_object() {
        let events = parse_wire(r#"[{"time": 0.5, "tag": 3, "reader": 1, "rssi": -58.25}]"#)
            .expect("bare array parses");
        assert_eq!(events, vec![ev(0.5, 3, 0, 1, -58.25)]);
        let (version, events) = parse_wire_versioned(
            r#"{"version": 2, "readings": [
                {"time": 1.0, "tag": 3, "reader": 1, "rssi": -59.0, "generation": 2}
            ]}"#,
        )
        .expect("trace object parses");
        assert_eq!(version, 2);
        assert_eq!(events, vec![ev(1.0, 3, 2, 1, -59.0)]);
    }

    #[test]
    fn parse_wire_rejects_bad_payloads() {
        assert!(matches!(parse_wire("not json"), Err(WireError::Json(_))));
        assert_eq!(
            parse_wire(r#"{"version": 3, "readings": []}"#),
            Err(WireError::UnsupportedVersion {
                found: 3,
                min: 1,
                max: 2
            })
        );
        assert_eq!(
            parse_wire(
                r#"{"version": 1, "readings": [
                    {"time": 0.0, "tag": 1, "reader": 0, "rssi": -60.0, "generation": 1}
                ]}"#
            ),
            Err(WireError::GenerationInV1 { index: 0 })
        );
        assert_eq!(
            parse_wire(r#"[{"time": 0.0, "tag": 1, "reader": 0, "rssi": null}]"#),
            Err(WireError::Json(
                "reading 0 `rssi`: expected number, got Null".into()
            ))
        );
    }

    #[test]
    fn validate_event_rejects_non_finite_time_and_rssi() {
        assert_eq!(validate_event(0, &ev(1.0, 1, 0, 0, -60.0)), Ok(()));
        assert_eq!(
            validate_event(3, &ev(f64::NAN, 1, 0, 0, -60.0)),
            Err(WireError::NotFinite {
                field: "time",
                index: 3
            })
        );
        for rssi in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                validate_event(7, &ev(1.0, 1, 0, 0, rssi)),
                Err(WireError::NotFinite {
                    field: "rssi",
                    index: 7
                })
            );
        }
        // Subnormals and huge-but-finite values are legal numbers.
        assert_eq!(
            validate_event(0, &ev(f64::MAX, 1, 0, 0, f64::MIN_POSITIVE / 2.0)),
            Ok(())
        );
    }
}
