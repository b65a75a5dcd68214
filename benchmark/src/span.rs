//! The benchmark's own spans: one record around every call it makes into
//! the program.
//!
//! No tracepoint lives inside the program; a span here is the interval the
//! driver spent inside one public call. Spans are kept in a per-thread `Vec`
//! and handed to a global sink when the thread calls [`flush`]; nothing is
//! written until the run ends. With tracing off [`enter`] costs one relaxed
//! atomic load and records nothing.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed interval on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the call entered (`runtime`, `core`, `net`, ...).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index, in the same thread's list, of the span that was open when this
    /// one started.
    pub parent: Option<u32>,
    /// Shared by all spans of one request (rank for submissions, request
    /// index for queries, repetition for whole-job calls).
    pub request_id: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// Relaxed: the flag publishes no data; a thread that sees it late records
// one span more or less.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static SINK: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

struct Local {
    tid: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Open a span on this thread; it closes when the guard drops.
pub fn enter(layer: &'static str, name: &'static str, request_id: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.spans.len() as u32;
        let parent = l.open.last().copied();
        let tid = l.tid;
        l.spans.push(Span {
            name,
            layer,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            request_id,
            tid,
        });
        l.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.spans[idx as usize].end_ns = end;
            l.open.retain(|&i| i != idx);
        });
    }
}

/// Time `f` and return its result with the elapsed nanoseconds, recording a
/// span when tracing is on. The elapsed time is measured either way: the
/// untraced run needs it for its own metrics.
pub fn timed<T>(
    layer: &'static str,
    name: &'static str,
    request_id: u64,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let guard = enter(layer, name, request_id);
    let t = Instant::now();
    let out = f();
    let ns = t.elapsed().as_nanos() as u64;
    drop(guard);
    (out, ns)
}

/// Hand this thread's closed spans to the global sink. Driver threads call
/// it as their last statement; a thread-local destructor would race the
/// scope's join.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.spans.is_empty() {
            return;
        }
        let spans = std::mem::take(&mut l.spans);
        l.open.clear();
        SINK.lock()
            .expect("span sink poisoned by a panicking driver thread")
            .push(spans);
    });
}

/// Take everything flushed so far, one list per flushing thread.
pub fn drain() -> Vec<Vec<Span>> {
    flush();
    std::mem::take(
        &mut *SINK
            .lock()
            .expect("span sink poisoned by a panicking driver thread"),
    )
}

/// Self time of every span of one thread's list: its duration minus the part
/// of that interval its direct children cover (overlapping children are
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over all threads: `(layer, name, calls, total_ns, self_ns)`,
/// sorted by layer then name so output order repeats.
pub fn summarize(threads: &[Vec<Span>]) -> Vec<(&'static str, &'static str, u64, u64, u64)> {
    let mut rows: std::collections::BTreeMap<(&str, &str), (u64, u64, u64)> = Default::default();
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let row = rows.entry((s.layer, s.name)).or_default();
            row.0 += 1;
            row.1 += s.dur_ns();
            row.2 += own;
        }
    }
    rows.into_iter()
        .map(|((layer, name), (calls, total, own))| (layer, name, calls, total, own))
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span.
pub fn chrome_json(threads: &[Vec<Span>]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for spans in threads {
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request_id\":{},\"parent\":{},\
                 \"self_us\":{:.3}}}}}",
                s.name,
                s.layer,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.request_id,
                parent,
                own as f64 / 1e3,
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span(0, 100, None),    // root
            span(10, 40, Some(0)), // first child
            span(15, 25, Some(1)), // grandchild: only its parent pays
            span(50, 90, Some(0)), // sibling
            span(200, 230, None),  // a second root, no children
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 30]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Two children overlapping on [30, 40], one running past the parent.
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn recorded_spans_nest_by_open_order() {
        // The only test that touches the global switch and sink.
        set_enabled(true);
        {
            let _outer = enter("pipeline", "outer", 7);
            let ((), ns) = timed("core", "inner", 7, || std::hint::black_box(()));
            assert!(ns < 1_000_000_000);
            let _second = enter("core", "second", 7);
        }
        set_enabled(false);
        let _ignored = enter("core", "off", 0);
        let mine: Vec<Span> = drain().into_iter().flatten().collect();
        let names: Vec<_> = mine.iter().map(|s| s.name).collect();
        assert_eq!(names, ["outer", "inner", "second"]);
        assert_eq!(mine[0].parent, None);
        assert_eq!((mine[1].parent, mine[2].parent), (Some(0), Some(0)));
        assert!(mine
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.request_id == 7));
        let rows = summarize(std::slice::from_ref(&mine));
        assert_eq!(rows.len(), 3);
        assert!(chrome_json(&[mine]).contains("\"name\":\"inner\""));
    }
}
