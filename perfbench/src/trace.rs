//! Spans for the traced run, recorded from the benchmark's own files
//! around calls into each layer's public functions. Nothing inside the
//! program is instrumented.
//!
//! A span has a name, a start and an end (nanoseconds since the log's
//! epoch), the id of the span that caused it, the id of the gateway batch
//! it belongs to, and a count attribute (events, tags, or patched cells).
//! Spans stay in memory and are written out once, at exit.
//!
//! [`Timed`] wraps the `Localizer` handed to the serving stack. Its
//! `prepare_owned` returns a [`TimedOwned`] that times `sync` and
//! `locate_batch_refs` and forwards every call to the inner prepared
//! localizer, so the pool fan-out and every result bit stay unchanged.

use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vire_core::{
    DirtyCell, Estimate, LocalizeError, Localizer, OwnedPreparedLocalizer, PreparedLocalizer,
    ReferenceRssiMap, SyncOutcome, TrackingReading,
};

pub const NONE: u32 = u32::MAX;

/// Sync outcome kinds stored in [`Span::kind`].
const SYNC_REUSED: u8 = 0;
pub const SYNC_PATCHED: u8 = 1;
pub const SYNC_REBUILT: u8 = 2;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub batch: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub count: u32,
    pub kind: u8,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// An open span: call [`SpanLog::end`] to record it.
pub struct Open {
    id: u32,
    parent: u32,
    batch: u32,
    name: &'static str,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// `(parent span, batch)` for spans opened by the localizer wrapper on
    /// this thread. Set by the in-process replay around each drive; left
    /// at `NONE` on the server's own threads.
    static CONTEXT: Cell<(u32, u32)> = const { Cell::new((NONE, NONE)) };
}

/// Runs `f` with the wrapper's parent span and batch set.
pub fn with_context<R>(parent: u32, batch: u32, f: impl FnOnce() -> R) -> R {
    let prev = CONTEXT.with(|c| c.replace((parent, batch)));
    let r = f();
    CONTEXT.with(|c| c.set(prev));
    r
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&self, name: &'static str, parent: u32, batch: u32) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            batch,
            name,
            start: self.now(),
        }
    }

    pub fn end(&self, open: Open, count: u32, kind: u8) {
        let end = self.now();
        self.spans.lock().expect("span log").push(Span {
            id: open.id,
            parent: open.parent,
            batch: open.batch,
            name: open.name,
            start: open.start,
            end,
            count,
            kind,
        });
    }

    /// Takes every recorded span, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log"))
    }
}

/// Writes spans as CSV (`id,parent,batch,name,start_ns,end_ns,count,kind`;
/// `parent`/`batch` are empty when absent).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id,parent,batch,name,start_ns,end_ns,count,kind")?;
    let opt = |v: u32| {
        if v == NONE {
            String::new()
        } else {
            v.to_string()
        }
    };
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            s.id,
            opt(s.parent),
            opt(s.batch),
            s.name,
            s.start,
            s.end,
            s.count,
            s.kind
        )?;
    }
    w.flush()
}

/// A localizer whose owned prepared form is timed. See the module docs.
pub struct Timed<L> {
    inner: L,
    log: Arc<SpanLog>,
}

impl<L> Timed<L> {
    pub fn new(inner: L, log: Arc<SpanLog>) -> Self {
        Timed { inner, log }
    }
}

impl<L: Localizer> Localizer for Timed<L> {
    fn locate(
        &self,
        refs: &ReferenceRssiMap,
        reading: &TrackingReading,
    ) -> Result<Estimate, LocalizeError> {
        self.inner.locate(refs, reading)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prepare<'a>(&'a self, refs: &'a ReferenceRssiMap) -> Box<dyn PreparedLocalizer + 'a> {
        self.inner.prepare(refs)
    }

    fn prepare_owned(&self, refs: &ReferenceRssiMap) -> Option<Box<dyn OwnedPreparedLocalizer>> {
        let inner = self.inner.prepare_owned(refs)?;
        Some(Box::new(TimedOwned {
            inner,
            log: Arc::clone(&self.log),
        }))
    }
}

/// The timed owned prepared localizer (see [`Timed`]).
pub struct TimedOwned {
    inner: Box<dyn OwnedPreparedLocalizer>,
    log: Arc<SpanLog>,
}

impl PreparedLocalizer for TimedOwned {
    fn locate(&self, reading: &TrackingReading) -> Result<Estimate, LocalizeError> {
        self.inner.locate(reading)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn locate_batch(&self, readings: &[TrackingReading]) -> Vec<Result<Estimate, LocalizeError>> {
        self.inner.locate_batch(readings)
    }

    fn locate_batch_refs(
        &self,
        readings: &[&TrackingReading],
    ) -> Vec<Result<Estimate, LocalizeError>> {
        let (parent, batch) = CONTEXT.with(Cell::get);
        let open = self.log.begin("locate", parent, batch);
        let out = self.inner.locate_batch_refs(readings);
        self.log.end(open, readings.len() as u32, 0);
        out
    }
}

impl OwnedPreparedLocalizer for TimedOwned {
    fn sync(&mut self, refs: &ReferenceRssiMap, hint: &[DirtyCell]) -> SyncOutcome {
        let (parent, batch) = CONTEXT.with(Cell::get);
        let open = self.log.begin("sync", parent, batch);
        let outcome = self.inner.sync(refs, hint);
        let (count, kind) = match outcome {
            SyncOutcome::Reused => (0, SYNC_REUSED),
            SyncOutcome::Patched(cells) => (cells as u32, SYNC_PATCHED),
            SyncOutcome::Rebuilt => (0, SYNC_REBUILT),
        };
        self.log.end(open, count, kind);
        outcome
    }
}
