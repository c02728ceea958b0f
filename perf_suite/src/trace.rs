//! In-memory span recorder for the traced run.
//!
//! Spans are opened by the wrappers in [`crate::wrappers`] around every call
//! into a layer of the program. Each records name, start, end, parent and
//! thread; the recorder holds the workload id they share. A span's parent is
//! the innermost span open on the same thread, otherwise the run root, so a
//! worker thread's store calls hang off the root rather than off whatever
//! the driver thread happens to be waiting in.
//!
//! Self time is a span's duration minus the time its children on the *same
//! thread* cover. A child on another thread runs beside its parent, not
//! inside it, so it is not subtracted: the driver's `engine.end_stage` self
//! time on a two-worker run is the time it waited at the barrier.

use crate::json::Json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Parent id of the run root.
pub const NO_PARENT: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn thread_id() -> u32 {
    THREAD.with(|t| {
        if t.get() == u32::MAX {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Shared span sink for one traced run. Inactive until [`Recorder::start`],
/// so the wrappers cost one relaxed load while the store is being built and
/// while the result is verified.
pub struct Recorder {
    pub workload: String,
    epoch: Instant,
    active: AtomicBool,
    next_id: AtomicU32,
    root: AtomicU32,
    opened: AtomicU64,
    closed: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
    /// Plan stage the executor wrapper last opened (for mid-run capture).
    pub stage: AtomicU32,
}

impl Recorder {
    pub fn new(workload: &str) -> Arc<Recorder> {
        Arc::new(Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            active: AtomicBool::new(false),
            next_id: AtomicU32::new(0),
            root: AtomicU32::new(NO_PARENT),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            stage: AtomicU32::new(0),
        })
    }

    pub fn is_active(&self) -> bool {
        self.active.load(Ordering::Relaxed)
    }

    /// Starts recording and opens the run root on the calling thread.
    pub fn start(self: &Arc<Self>) -> SpanGuard {
        self.active.store(true, Ordering::SeqCst);
        let root = self.span("run");
        self.root.store(
            root.open.as_ref().map_or(NO_PARENT, |o| o.id),
            Ordering::SeqCst,
        );
        root
    }

    /// Stops recording; spans opened afterwards are no-ops.
    pub fn stop(&self) {
        self.active.store(false, Ordering::SeqCst);
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        if !self.is_active() {
            return SpanGuard { open: None };
        }
        self.opened.fetch_add(1, Ordering::Relaxed);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied();
            o.push(id);
            parent
        });
        SpanGuard {
            open: Some(OpenSpan {
                rec: Arc::clone(self),
                id,
                parent: parent.unwrap_or_else(|| self.root.load(Ordering::Relaxed)),
                name,
                thread: thread_id(),
                start_ns: self.epoch.elapsed().as_nanos() as u64,
            }),
        }
    }

    pub fn opened(&self) -> u64 {
        self.opened.load(Ordering::SeqCst)
    }

    pub fn closed(&self) -> u64 {
        self.closed.load(Ordering::SeqCst)
    }

    /// The closed spans, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRec> {
        let mut spans = self.spans.lock().expect("span sink poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

struct OpenSpan {
    rec: Arc<Recorder>,
    id: u32,
    parent: u32,
    name: &'static str,
    thread: u32,
    start_ns: u64,
}

/// RAII handle of an open span (or of nothing, when recording is off).
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else { return };
        let end_ns = o.rec.epoch.elapsed().as_nanos() as u64;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(pos) = open.iter().rposition(|&id| id == o.id) {
                open.remove(pos);
            }
        });
        if let Ok(mut spans) = o.rec.spans.lock() {
            spans.push(SpanRec {
                id: o.id,
                parent: o.parent,
                name: o.name,
                thread: o.thread,
                start_ns: o.start_ns,
                end_ns,
            });
        }
        o.rec.closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Self time of every span, aligned with `spans`: duration minus the
/// durations of its children on the same thread. Signed, so that a broken
/// tree (children outliving their parent) shows as a negative value instead
/// of being clamped away.
pub fn self_times(spans: &[SpanRec]) -> Vec<i64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut own: Vec<i64> = spans.iter().map(|s| s.duration_ns() as i64).collect();
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            if spans[p].thread == s.thread {
                own[p] -= s.duration_ns() as i64;
            }
        }
    }
    own
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: i64,
}

impl NameTotal {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// What the traced run's spans add up to.
pub struct Summary {
    by_name: BTreeMap<&'static str, NameTotal>,
    /// Duration of the run root.
    pub run_ns: u64,
    /// Sum of the self times of the spans on the root's thread. Equals
    /// `run_ns` when every span on that thread nests inside the root.
    pub root_thread_self_ns: i64,
    /// Smallest self time seen (negative means a broken tree).
    pub min_self_ns: i64,
    pub spans: usize,
}

impl Summary {
    pub fn of(spans: &[SpanRec]) -> Summary {
        let own = self_times(spans);
        let root = spans.iter().find(|s| s.parent == NO_PARENT);
        let mut by_name: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        let mut root_thread_self_ns = 0i64;
        for (s, &self_ns) in spans.iter().zip(&own) {
            let t = by_name.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.duration_ns();
            t.self_ns += self_ns;
            if root.is_some_and(|r| r.thread == s.thread) {
                root_thread_self_ns += self_ns;
            }
        }
        Summary {
            by_name,
            run_ns: root.map_or(0, SpanRec::duration_ns),
            root_thread_self_ns,
            min_self_ns: own.iter().copied().min().unwrap_or(0),
            spans: spans.len(),
        }
    }

    /// Totals for one span name (zeros when it never opened).
    pub fn name(&self, name: &str) -> NameTotal {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Span names with their totals, for the printed breakdown.
    pub fn names(&self) -> impl Iterator<Item = (&'static str, NameTotal)> + '_ {
        self.by_name.iter().map(|(k, v)| (*k, *v))
    }
}

/// Chrome-trace ("Trace Event Format") JSON of the spans: one complete
/// (`"ph":"X"`) event per span, one lane per thread, the layer as category.
pub fn chrome_trace(workload: &str, spans: &[SpanRec]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            Json::object([
                ("name", Json::str(s.name)),
                ("cat", Json::str(layer)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(s.thread as f64)),
                (
                    "args",
                    Json::object([
                        ("id", Json::Num(s.id as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Json::Null
                            } else {
                                Json::Num(s.parent as f64)
                            },
                        ),
                        ("workload", Json::str(workload)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::object([
        ("displayTimeUnit", Json::str("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, thread: u32, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name: match id {
                0 => "run",
                1 | 4 => "store.load",
                _ => "compress.decode",
            },
            thread,
            start_ns,
            end_ns,
        }
    }

    /// run [0,100) on thread 0
    ///   store.load [10,40) thread 0
    ///     compress.decode [15,35) thread 0
    ///   store.load [50,90) thread 1   (worker: parent is the root)
    ///     compress.decode [55,60) thread 1
    fn tree() -> Vec<SpanRec> {
        vec![
            span(0, NO_PARENT, 0, 0, 100),
            span(1, 0, 0, 10, 40),
            span(2, 1, 0, 15, 35),
            span(4, 0, 1, 50, 90),
            span(5, 4, 1, 55, 60),
        ]
    }

    #[test]
    fn self_time_subtracts_same_thread_children_only() {
        let own = self_times(&tree());
        // The root loses the 30 ns of its same-thread child, not the 40 ns
        // a worker thread spent beside it.
        assert_eq!(own, vec![70, 10, 20, 35, 5]);
    }

    #[test]
    fn summary_groups_by_name_and_accounts_for_the_root_thread() {
        let s = Summary::of(&tree());
        assert_eq!(s.run_ns, 100);
        assert_eq!(s.root_thread_self_ns, 100);
        assert_eq!(s.min_self_ns, 5);
        assert_eq!(
            s.name("store.load"),
            NameTotal {
                calls: 2,
                busy_ns: 70,
                self_ns: 45
            }
        );
        assert_eq!(s.name("compress.decode").busy_ns, 25);
        assert_eq!(s.name("store.flush"), NameTotal::default());
    }

    #[test]
    fn a_child_outliving_its_parent_shows_as_negative_self_time() {
        let spans = vec![span(0, NO_PARENT, 0, 0, 10), span(1, 0, 0, 5, 30)];
        assert_eq!(Summary::of(&spans).min_self_ns, -15);
    }

    #[test]
    fn recorder_nests_on_one_thread_and_falls_back_to_the_root_across_threads() {
        let rec = Recorder::new("t");
        assert!(rec.span("ignored").open.is_none(), "inactive before start");
        {
            let _root = rec.start();
            {
                let _a = rec.span("store.load");
                let _b = rec.span("compress.decode");
            }
            let worker = Arc::clone(&rec);
            std::thread::spawn(move || drop(worker.span("store.store")))
                .join()
                .unwrap();
        }
        rec.stop();
        assert_eq!(rec.opened(), 4);
        assert_eq!(rec.closed(), 4);
        let spans = rec.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let root = by_name("run");
        assert_eq!(root.parent, NO_PARENT);
        assert_eq!(by_name("store.load").parent, root.id);
        assert_eq!(by_name("compress.decode").parent, by_name("store.load").id);
        assert_eq!(by_name("store.store").parent, root.id);
        assert_ne!(by_name("store.store").thread, root.thread);
        assert!(Summary::of(&spans).min_self_ns >= 0);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let text = chrome_trace("w", &tree()).to_string();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 5);
        assert!(text.contains("\"cat\":\"compress\""));
        assert!(text.contains("\"parent\":null"));
    }
}
