//! # pallas-trace
//!
//! Structured span tracing for the Pallas pipeline: hierarchical
//! spans (unit → stage → path enumeration → checker family → rule)
//! with typed attributes, collected into per-thread ring buffers and
//! exported either as Chrome trace-event JSON ([`export_chrome`],
//! loadable in `chrome://tracing` / Perfetto) or as a terminal flame
//! summary ([`render_trace_summary`], top spans by self-time).
//!
//! The collector is **compile-always but runtime-gated**: every
//! instrumentation point stays in the binary, and when tracing is
//! disabled (the default) [`span`] and [`instant`] reduce to a single
//! relaxed atomic load — no clock read, no allocation, no lock. The
//! engine benchmark's overhead test pins this property.
//!
//! Recording is per-thread: each thread owns a bounded ring buffer
//! (only the owner pushes; the exporter drains), so the enabled hot
//! path never contends a global lock. When a ring fills, the oldest
//! records are overwritten and [`dropped`] counts the loss — tracing
//! degrades by forgetting history, never by blocking the pipeline.
//!
//! ```
//! use pallas_trace as trace;
//!
//! let _x = trace::exclusive(); // serialize global-collector users
//! trace::start();
//! {
//!     let mut unit = trace::span(trace::Layer::Unit, "mm/demo");
//!     unit.attr_u64("files", 1);
//!     let _stage = trace::span(trace::Layer::Stage, "parse");
//! } // guards record on drop
//! let records = trace::stop();
//! assert_eq!(records.len(), 2);
//! let json = trace::export_chrome(&records);
//! assert!(json.contains("\"cat\":\"unit\""));
//! println!("{}", trace::render_trace_summary(&records, 10));
//! ```

pub mod chrome;
pub mod summary;

pub use chrome::{export_chrome, json_escape_into};
pub use summary::render_trace_summary;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// The span layers of the Pallas pipeline, top to bottom. Exported as
/// the Chrome trace-event `cat` field, so a Perfetto query can filter
/// one layer of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// One unit through the engine (`Engine::check_unit`).
    Unit,
    /// One pipeline stage (merge/parse/spec/extract/check).
    Stage,
    /// Path-database construction: per-function extraction and CFG
    /// path enumeration, including truncation events.
    Paths,
    /// One checker family over one unit.
    Checker,
    /// Per-rule outcome events inside a checker family.
    Rule,
    /// Frontend cache events (hit/miss/eviction).
    Cache,
    /// Batch scheduling: the fan-out span and per-worker spans.
    Sched,
    /// One daemon request (queue wait + execution).
    Request,
    /// Persistent analysis-store events (disk hit/miss/stale,
    /// per-function reuse, flush, compaction).
    Store,
    /// Daemon service-level events above individual requests:
    /// connection open/close, request coalescing, drain.
    Service,
}

impl Layer {
    /// All layers, hierarchy order.
    pub const ALL: [Layer; 10] = [
        Layer::Unit,
        Layer::Stage,
        Layer::Paths,
        Layer::Checker,
        Layer::Rule,
        Layer::Cache,
        Layer::Sched,
        Layer::Request,
        Layer::Store,
        Layer::Service,
    ];

    /// The layer's `cat` name in exports.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unit => "unit",
            Layer::Stage => "stage",
            Layer::Paths => "paths",
            Layer::Checker => "checker",
            Layer::Rule => "rule",
            Layer::Cache => "cache",
            Layer::Sched => "sched",
            Layer::Request => "request",
            Layer::Store => "store",
            Layer::Service => "service",
        }
    }
}

/// A typed attribute value attached to a span or instant event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// An unsigned counter or size.
    U64(u64),
    /// A flag.
    Bool(bool),
    /// A free-form label.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

/// One finished span or instant event, as drained from the collector.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Which layer of the hierarchy.
    pub layer: Layer,
    /// Span name (unit name, stage name, function, checker, rule...).
    pub name: String,
    /// Collector-assigned id of the recording thread.
    pub tid: u64,
    /// Start time, nanoseconds since the collector epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds; `None` marks an instant event or a
    /// still-open span (see [`Record::incomplete`]).
    pub dur_ns: Option<u64>,
    /// True for a snapshot of a span whose guard was still alive when
    /// [`take`] drained the collector. Its duration is unknown — the
    /// guard will record the real span when it drops — so consumers
    /// must not treat it as zero-length work.
    pub incomplete: bool,
    /// Typed attributes (`args` in the Chrome export).
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Record {
    /// End time (start for instant events).
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns.unwrap_or(0)
    }
}

/// Default per-thread ring capacity, in records. A corpus-unit check
/// produces a few hundred records; the default leaves room for large
/// batches before the ring starts forgetting the oldest spans.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// One thread's bounded ring of finished records. Only the owning
/// thread pushes; the exporter drains. The mutex is therefore almost
/// always uncontended — it exists so `take()` can drain rings of
/// threads that are still alive.
struct ThreadBuf {
    tid: u64,
    ring: Mutex<std::collections::VecDeque<Record>>,
    /// Spans opened on this thread whose guards have not dropped yet,
    /// in start order. [`take`] snapshots these as incomplete records
    /// so a drain mid-work (daemon stats, a hung stage) accounts for
    /// in-flight spans instead of silently omitting them.
    live: Mutex<Vec<LiveSpan>>,
}

struct LiveSpan {
    id: u64,
    layer: Layer,
    name: String,
    start_ns: u64,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static LOCAL: Arc<ThreadBuf> = {
        let buf = Arc::new(ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            ring: Mutex::new(std::collections::VecDeque::new()),
            live: Mutex::new(Vec::new()),
        });
        lock(registry()).push(Arc::clone(&buf));
        buf
    };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn push_record(mut record: Record) {
    let capacity = RING_CAPACITY.load(Ordering::Relaxed).max(1);
    LOCAL.with(|buf| {
        record.tid = buf.tid;
        let mut ring = lock(&buf.ring);
        while ring.len() >= capacity {
            ring.pop_front();
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    });
}

/// Whether the collector is currently recording. Instrumentation
/// points that need to *build* something (a formatted name, a string
/// attribute) gate on this before allocating.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Already-recorded spans stay buffered.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Discards everything recorded so far and starts recording.
pub fn start() {
    clear();
    set_enabled(true);
}

/// Stops recording and drains every thread's buffer, records sorted
/// by start time.
pub fn stop() -> Vec<Record> {
    set_enabled(false);
    take()
}

/// Drains every thread's ring (recording state is left as-is).
/// Records come back sorted by `(start_ns, end desc)` so parents sort
/// before their children.
pub fn take() -> Vec<Record> {
    let mut out = Vec::new();
    for buf in lock(registry()).iter() {
        out.extend(lock(&buf.ring).drain(..));
        // Snapshot, don't drain: the guard is still running and will
        // record the finished span itself when it drops.
        for live in lock(&buf.live).iter() {
            out.push(Record {
                layer: live.layer,
                name: live.name.clone(),
                tid: buf.tid,
                start_ns: live.start_ns,
                dur_ns: None,
                incomplete: true,
                attrs: Vec::new(),
            });
        }
    }
    out.sort_by(|a, b| {
        a.start_ns.cmp(&b.start_ns).then(b.end_ns().cmp(&a.end_ns()))
    });
    out
}

/// Discards all buffered records and resets the dropped counter.
pub fn clear() {
    for buf in lock(registry()).iter() {
        lock(&buf.ring).clear();
    }
    DROPPED.store(0, Ordering::Relaxed);
}

/// Records overwritten because a thread's ring was full.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Sets the per-thread ring capacity (records). Takes effect on the
/// next push; a smaller capacity trims lazily as threads record.
pub fn set_ring_capacity(records: usize) {
    RING_CAPACITY.store(records.max(1), Ordering::Relaxed);
}

/// Serializes users of the global collector. The collector is
/// process-wide, so tests (and any other whole-trace consumers) that
/// enable, record, and drain must hold this guard to keep concurrent
/// users from interleaving records or toggling the gate mid-capture.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static EXCLUSIVE: Mutex<()> = Mutex::new(());
    lock(&EXCLUSIVE)
}

/// An RAII span: created by [`span`], recorded when dropped. When
/// tracing is disabled the guard is inert and carries no data.
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    layer: Layer,
    name: String,
    start_ns: u64,
    /// Key into the owning thread's live-span list.
    id: u64,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Attaches a counter attribute (no-op when inert).
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::U64(value)));
        }
    }

    /// Attaches a flag attribute (no-op when inert).
    pub fn attr_bool(&mut self, key: &'static str, value: bool) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::Bool(value)));
        }
    }

    /// Attaches a label attribute (no-op when inert; the string is
    /// only copied when the span is live).
    pub fn attr_str(&mut self, key: &'static str, value: &str) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key, AttrValue::Str(value.to_string())));
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur = now_ns().saturating_sub(inner.start_ns);
            LOCAL.with(|buf| {
                let mut live = lock(&buf.live);
                if let Some(pos) = live.iter().rposition(|l| l.id == inner.id) {
                    live.remove(pos);
                }
            });
            push_record(Record {
                layer: inner.layer,
                name: inner.name,
                tid: 0, // assigned by push_record from the thread-local buffer
                start_ns: inner.start_ns,
                dur_ns: Some(dur),
                incomplete: false,
                attrs: inner.attrs,
            });
        }
    }
}

/// Opens a span on the current thread. **The hot path**: when tracing
/// is disabled this is one relaxed atomic load and returns an inert
/// guard — no clock read, no allocation.
#[inline]
pub fn span(layer: Layer, name: &str) -> Span {
    if !enabled() {
        return Span { inner: None };
    }
    let start_ns = now_ns();
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|buf| {
        lock(&buf.live).push(LiveSpan { id, layer, name: name.to_string(), start_ns });
    });
    Span {
        inner: Some(SpanInner {
            layer,
            name: name.to_string(),
            start_ns,
            id,
            attrs: Vec::new(),
        }),
    }
}

/// Records a zero-duration event. Same gate as [`span`]: a single
/// atomic load when disabled. Callers with expensive attributes
/// should check [`enabled`] before building them.
#[inline]
pub fn instant(layer: Layer, name: &str, attrs: Vec<(&'static str, AttrValue)>) {
    if !enabled() {
        return;
    }
    push_record(Record {
        layer,
        name: name.to_string(),
        tid: 0,
        start_ns: now_ns(),
        dur_ns: None,
        incomplete: false,
        attrs,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draining_mid_span_surfaces_an_incomplete_snapshot() {
        let _x = exclusive();
        start();
        let alive = span(Layer::Unit, "in-flight");
        instant(Layer::Cache, "blip", Vec::new());
        let mid = take();
        let open: Vec<&Record> = mid.iter().filter(|r| r.incomplete).collect();
        assert_eq!(open.len(), 1, "{mid:?}");
        assert_eq!(open[0].name, "in-flight");
        assert_eq!(open[0].dur_ns, None);
        // The snapshot did not consume the span: the guard still
        // records the finished record, and no stale snapshot remains.
        drop(alive);
        let done = stop();
        assert!(done.iter().all(|r| !r.incomplete), "{done:?}");
        assert!(
            done.iter().any(|r| r.name == "in-flight" && r.dur_ns.is_some()),
            "{done:?}"
        );
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _x = exclusive();
        clear();
        set_enabled(false);
        {
            let mut s = span(Layer::Unit, "ghost");
            s.attr_u64("n", 1);
            assert!(!s.is_recording());
            instant(Layer::Cache, "ghost-event", Vec::new());
        }
        assert!(take().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_attrs() {
        let _x = exclusive();
        start();
        {
            let mut unit = span(Layer::Unit, "demo");
            unit.attr_bool("cached", false);
            unit.attr_str("kind", "test");
            let _inner = span(Layer::Stage, "parse");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let records = stop();
        assert_eq!(records.len(), 2);
        // Sorted parent-first; the child lies within the parent.
        assert_eq!(records[0].name, "demo");
        assert_eq!(records[1].name, "parse");
        assert!(records[1].start_ns >= records[0].start_ns);
        assert!(records[1].end_ns() <= records[0].end_ns());
        assert_eq!(records[0].attrs.len(), 2);
        assert_eq!(records[0].attrs[0], ("cached", AttrValue::Bool(false)));
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _x = exclusive();
        set_ring_capacity(8);
        start();
        for i in 0..20 {
            let _s = span(Layer::Rule, &format!("r{i}"));
        }
        let records = stop();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        assert_eq!(records.len(), 8);
        assert!(dropped() >= 12, "dropped {}", dropped());
        // The newest records survive.
        assert!(records.iter().any(|r| r.name == "r19"));
        assert!(!records.iter().any(|r| r.name == "r0"));
        clear();
    }

    #[test]
    fn records_from_many_threads_are_gathered() {
        let _x = exclusive();
        start();
        std::thread::scope(|scope| {
            for t in 0..4 {
                scope.spawn(move || {
                    let _s = span(Layer::Unit, &format!("t{t}"));
                });
            }
        });
        let records = stop();
        assert_eq!(records.len(), 4);
        let tids: std::collections::HashSet<u64> = records.iter().map(|r| r.tid).collect();
        assert_eq!(tids.len(), 4, "one collector id per thread");
    }

    #[test]
    fn instants_have_no_duration() {
        let _x = exclusive();
        start();
        instant(Layer::Cache, "hit", vec![("key", AttrValue::U64(9))]);
        let records = stop();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].dur_ns, None);
        assert_eq!(records[0].end_ns(), records[0].start_ns);
    }
}
