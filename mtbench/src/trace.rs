//! Benchmark-side spans around calls into the program's layers.
//!
//! Spans live in per-thread memory while a workload runs and are handed to
//! a global list when the thread's root span closes; nothing is written
//! until the benchmark ends. Each closed span knows its self time (its
//! duration minus the time its children covered), so per-layer rows add up
//! to the thread's wall time with nothing counted twice. A thread's root
//! span's self time is benchmark code outside any layer: the
//! `unattributed` row.
//!
//! Calls made thousands of times per second (one per upload or tap batch)
//! are *rolled*: each closes into a per-parent aggregate (count, total and
//! self time) instead of its own record, which bounds memory at the cost
//! of per-call start/end times.
//!
//! Tracing is off except during a traced [`repetition`]; a span opened
//! while it is off costs one relaxed atomic load.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The program layer a span's time is charged to (a layer is a crate), or
/// one of the benchmark's own rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Set-up: the simulator and input encoding (load generator).
    World,
    /// `mobitrace-collector`: ingest, drain, clean.
    Collector,
    /// `mobitrace-core`: analysis-context builds.
    Core,
    /// `mobitrace-report`: experiment rendering.
    Report,
    /// `mobitrace-pool` through `CampaignSet::save_pool`/`load_pool`.
    Pool,
    /// `mobitrace-live`: the streaming engine.
    Live,
    /// `mobitrace-query`: query evaluation.
    Query,
    /// `mobitrace-fleet`: admission, queues, per-cohort stores.
    Fleet,
    /// The benchmark checking outputs against its references.
    Verify,
    /// The benchmark's load generator waiting for the schedule, and the
    /// root spans whose self time is the `unattributed` row.
    Bench,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 10] = [
        Layer::World,
        Layer::Collector,
        Layer::Core,
        Layer::Report,
        Layer::Pool,
        Layer::Live,
        Layer::Query,
        Layer::Fleet,
        Layer::Verify,
        Layer::Bench,
    ];

    /// Lower-case row name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::World => "world",
            Layer::Collector => "collector",
            Layer::Core => "core",
            Layer::Report => "report",
            Layer::Pool => "pool",
            Layer::Live => "live",
            Layer::Query => "query",
            Layer::Fleet => "fleet",
            Layer::Verify => "verify",
            Layer::Bench => "benchmark",
        }
    }
}

/// Name of every thread's root span.
pub const ROOT: &str = "thread";

/// One closed span (or, with `count > 1`, a rolled aggregate of a
/// parent's repeated child calls).
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (0 is "no parent").
    pub id: u64,
    /// Enclosing span's id, 0 for a thread root.
    pub parent: u64,
    /// Span name, `layer.call`.
    pub name: &'static str,
    /// Layer charged.
    pub layer: Layer,
    /// Waiting (idle, schedule) rather than busy time.
    pub wait: bool,
    /// Start, ns since the trace epoch (first call for a rolled span).
    pub start_ns: u64,
    /// End, ns since the trace epoch (last call for a rolled span).
    pub end_ns: u64,
    /// Total duration (summed over calls for a rolled span).
    pub total_ns: u64,
    /// Duration minus the time child spans covered.
    pub self_ns: u64,
    /// Calls aggregated into this record.
    pub count: u64,
    /// Benchmark thread number.
    pub thread: u64,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Repetition (rep, replay or rung) within the workload.
    pub rep: u32,
}

struct Frame {
    id: u64,
    name: &'static str,
    layer: Layer,
    wait: bool,
    rolled: bool,
    start: Instant,
    child_ns: u64,
    rolled_children: Vec<SpanRecord>,
}

struct ThreadLog {
    thread: u64,
    workload: &'static str,
    rep: u32,
    stack: Vec<Frame>,
    records: Vec<SpanRecord>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static DONE: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static LOG: RefCell<ThreadLog> = RefCell::new(ThreadLog {
        thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
        workload: "",
        rep: 0,
        stack: Vec::new(),
        records: Vec::new(),
    });
}

/// Turn span recording on or off for spans opened from now on.
fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// Record one repetition when `on`: turns tracing on and opens the
/// calling thread's root span; dropping the guard closes the root and
/// turns tracing off again. Threads the repetition spawns open their own
/// roots while it is on.
pub fn repetition(on: bool) -> Repetition {
    if on {
        set_enabled(true);
    }
    Repetition { root: on.then(thread_root) }
}

/// Guard of a [`repetition`].
#[must_use = "the repetition's root span closes when its guard drops"]
pub struct Repetition {
    root: Option<ThreadRoot>,
}

impl Drop for Repetition {
    fn drop(&mut self) {
        if let Some(root) = self.root.take() {
            drop(root);
            set_enabled(false);
        }
    }
}

/// Whether spans are being recorded.
fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag this thread's subsequent spans with a workload and repetition.
pub fn set_context(workload: &'static str, rep: u32) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        l.workload = workload;
        l.rep = rep;
    });
}

/// Guard that closes its span when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct Span {
    active: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.active {
            close();
        }
    }
}

fn open(name: &'static str, layer: Layer, wait: bool, rolled: bool) -> Span {
    if !enabled() {
        return Span { active: false };
    }
    LOG.with(|l| {
        l.borrow_mut().stack.push(Frame {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            name,
            layer,
            wait,
            rolled,
            start: Instant::now(),
            child_ns: 0,
            rolled_children: Vec::new(),
        })
    });
    Span { active: true }
}

/// A busy span recorded individually.
pub fn span(name: &'static str, layer: Layer) -> Span {
    open(name, layer, false, false)
}

/// A busy span rolled into its parent's per-name aggregate.
pub fn rolled(name: &'static str, layer: Layer) -> Span {
    open(name, layer, false, true)
}

/// A waiting span rolled into its parent's per-name aggregate.
pub fn rolled_wait(name: &'static str, layer: Layer) -> Span {
    open(name, layer, true, true)
}

/// Open this thread's root span; dropping the guard closes it and hands
/// every span the thread recorded to the global list.
pub fn thread_root() -> ThreadRoot {
    ThreadRoot { span: open(ROOT, Layer::Bench, false, false) }
}

/// Guard for a thread's root span.
#[must_use = "the root span closes when its guard drops"]
pub struct ThreadRoot {
    span: Span,
}

impl Drop for ThreadRoot {
    fn drop(&mut self) {
        if std::mem::replace(&mut self.span.active, false) {
            close();
            let records = LOG.with(|l| std::mem::take(&mut l.borrow_mut().records));
            // Another thread's panic cannot leave the list half-extended.
            DONE.lock().unwrap_or_else(|e| e.into_inner()).extend(records);
        }
    }
}

fn ns_since_epoch(t: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    t.saturating_duration_since(epoch).as_nanos() as u64
}

fn close() {
    let end = Instant::now();
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        // Guards close in reverse order of opening, so a frame is always
        // there; a drop must not panic in any case.
        let Some(frame) = l.stack.pop() else { return };
        let total_ns = end.saturating_duration_since(frame.start).as_nanos() as u64;
        let self_ns = total_ns.saturating_sub(frame.child_ns);
        let (start_ns, end_ns) = (ns_since_epoch(frame.start), ns_since_epoch(end));
        let (thread, workload, rep) = (l.thread, l.workload, l.rep);
        let parent = match l.stack.last_mut() {
            Some(p) => {
                p.child_ns += total_ns;
                p.id
            }
            None => 0,
        };
        let record = SpanRecord {
            id: frame.id,
            parent,
            name: frame.name,
            layer: frame.layer,
            wait: frame.wait,
            start_ns,
            end_ns,
            total_ns,
            self_ns,
            count: 1,
            thread,
            workload,
            rep,
        };
        if let (true, Some(p)) = (frame.rolled, l.stack.last_mut()) {
            // The aggregate and any aggregates rolled under it become
            // per-name aggregates of the parent.
            for r in std::iter::once(record).chain(frame.rolled_children) {
                match p.rolled_children.iter_mut().find(|a| a.name == r.name) {
                    Some(a) => {
                        a.count += r.count;
                        a.total_ns += r.total_ns;
                        a.self_ns += r.self_ns;
                        a.end_ns = r.end_ns;
                    }
                    None => p.rolled_children.push(SpanRecord { parent, ..r }),
                }
            }
            return;
        }
        l.records.push(record);
        l.records.extend(frame.rolled_children);
    });
}

/// Take every span handed over by closed thread roots.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *DONE.lock().unwrap_or_else(|e| e.into_inner()))
}

/// One row of a workload's layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerRow {
    /// Calls (rolled aggregates count every call).
    pub calls: u64,
    /// Busy self time, seconds.
    pub self_s: f64,
    /// Waiting self time, seconds.
    pub wait_s: f64,
}

/// Per-layer attribution of one workload's spans.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Rows in [`Layer::ALL`] order.
    pub rows: Vec<(Layer, LayerRow)>,
    /// Self time of the thread roots: benchmark code outside any span.
    pub unattributed_s: f64,
    /// Summed durations of the thread roots (one thread: the wall time).
    pub thread_s: f64,
}

impl Attribution {
    /// Sum the spans of `workload` into layer rows.
    pub fn of(spans: &[SpanRecord], workload: &str) -> Attribution {
        let mut rows: Vec<(Layer, LayerRow)> =
            Layer::ALL.iter().map(|&l| (l, LayerRow::default())).collect();
        let mut out = Attribution::default();
        for s in spans.iter().filter(|s| s.workload == workload) {
            let secs = s.self_ns as f64 * 1e-9;
            if s.name == ROOT && s.parent == 0 {
                out.unattributed_s += secs;
                out.thread_s += s.total_ns as f64 * 1e-9;
                continue;
            }
            let row = &mut rows.iter_mut().find(|(l, _)| *l == s.layer).expect("every layer").1;
            row.calls += s.count;
            if s.wait {
                row.wait_s += secs;
            } else {
                row.self_s += secs;
            }
        }
        out.rows = rows;
        out
    }

    /// Layer rows plus the unattributed row, seconds.
    pub fn accounted_s(&self) -> f64 {
        self.rows.iter().map(|(_, r)| r.self_s + r.wait_s).sum::<f64>() + self.unattributed_s
    }
}

/// Summed self seconds of the spans named `name` in `workload`.
pub fn self_seconds(spans: &[SpanRecord], workload: &str, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.workload == workload && s.name == name)
        .map(|s| s.self_ns)
        .sum::<u64>() as f64
        * 1e-9
}

/// Write spans as JSON lines.
pub fn write_jsonl(spans: &[SpanRecord], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = serde_json::json!({
            "id": s.id,
            "parent": s.parent,
            "name": s.name,
            "layer": s.layer.name(),
            "wait": s.wait,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "total_ns": s.total_ns,
            "self_ns": s.self_ns,
            "count": s.count,
            "thread": s.thread,
            "workload": s.workload,
            "rep": s.rep,
        });
        writeln!(w, "{line}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Self times partition the root's duration exactly, and rolled calls
    /// aggregate into one record per (parent, name).
    #[test]
    fn self_times_partition_the_root() {
        set_enabled(true);
        std::thread::spawn(|| {
            set_context("unit", 0);
            let _root = thread_root();
            {
                let _outer = span("core.context", Layer::Core);
                for _ in 0..3 {
                    let _inner = rolled("collector.ingest", Layer::Collector);
                    std::hint::black_box((0..1000).sum::<u64>());
                    let _nested = rolled_wait("live.idle", Layer::Live);
                    std::thread::sleep(std::time::Duration::from_micros(50));
                }
            }
        })
        .join()
        .unwrap();
        let spans: Vec<SpanRecord> = take().into_iter().filter(|s| s.workload == "unit").collect();
        let rolled: Vec<_> = spans.iter().filter(|s| s.name == "collector.ingest").collect();
        assert_eq!(rolled.len(), 1);
        assert_eq!(rolled[0].count, 3);
        let a = Attribution::of(&spans, "unit");
        assert!((a.accounted_s() - a.thread_s).abs() < 1e-9 + a.thread_s * 1e-9);
        let collector = a.rows.iter().find(|(l, _)| *l == Layer::Collector).unwrap().1;
        assert_eq!(collector.calls, 3);
        // Aggregates rolled under a rolled span survive, as siblings.
        let live = a.rows.iter().find(|(l, _)| *l == Layer::Live).unwrap().1;
        assert_eq!(live.calls, 3);
        assert!(live.wait_s >= 150e-6);
    }
}
