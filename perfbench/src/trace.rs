//! In-memory spans around calls into the workspace's layers, written
//! out at the end of a run as a Chrome trace-event file (Perfetto and
//! `chrome://tracing` open it offline).
//!
//! Spans are recorded only while tracing is enabled; a disabled
//! [`span`] costs one atomic load.  Each span holds its name, start,
//! end, parent (the innermost span open on the same thread when it
//! began) and the request id it serves.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub req: u64,
    pub tid: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU32,
    next_tid: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static T: OnceLock<Tracer> = OnceLock::new();
    T.get_or_init(|| Tracer {
        epoch: Instant::now(),
        enabled: AtomicBool::new(false),
        next_id: AtomicU32::new(0),
        next_tid: AtomicU32::new(1),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    /// Open spans on this thread, innermost last, and this thread's id.
    static STACK: RefCell<(u32, Vec<u32>)> = const { RefCell::new((0, Vec::new())) };
}

/// Turn recording on or off (spans already open keep recording).
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// An open span; it is recorded when dropped.
pub struct Guard {
    open: Option<(u32, u32, &'static str, u64, u32, u64)>,
}

/// Open a span named `name` for request `req`.
pub fn span(name: &'static str, req: u64) -> Guard {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let (parent, tid) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.0 == 0 {
            s.0 = t.next_tid.fetch_add(1, Ordering::Relaxed);
        }
        let parent = s.1.last().copied().unwrap_or(NO_PARENT);
        s.1.push(id);
        (parent, s.0)
    });
    let start = t.epoch.elapsed().as_nanos() as u64;
    Guard {
        open: Some((id, parent, name, req, tid, start)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, req, tid, start_ns)) = self.open.take() {
            let t = tracer();
            let end_ns = t.epoch.elapsed().as_nanos() as u64;
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.1.iter().rposition(|&x| x == id) {
                    s.1.remove(pos);
                }
            });
            let span = Span {
                id,
                parent,
                name,
                req,
                tid,
                start_ns,
                end_ns,
            };
            // A poisoned buffer only means another thread panicked
            // while pushing; the spans already in it are intact.
            t.spans.lock().unwrap_or_else(|p| p.into_inner()).push(span);
        }
    }
}

/// Nanoseconds since the tracer's epoch, for [`record`].
pub fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// Record a span whose interval was measured elsewhere (for example
/// from a request's due time on one thread to its response on another).
pub fn record(name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
    let t = tracer();
    if !t.enabled.load(Ordering::Relaxed) {
        return;
    }
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let tid = STACK.with(|s| {
        let mut s = s.borrow_mut();
        if s.0 == 0 {
            s.0 = t.next_tid.fetch_add(1, Ordering::Relaxed);
        }
        s.0
    });
    let span = Span {
        id,
        parent: NO_PARENT,
        name,
        req,
        tid,
        start_ns,
        end_ns: end_ns.max(start_ns),
    };
    t.spans.lock().unwrap_or_else(|p| p.into_inner()).push(span);
}

/// Time `f` inside a span and return its result with the elapsed
/// seconds (measured whether or not tracing is on).
pub fn timed<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let _g = span(name, req);
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    tracer()
        .spans
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .clone()
}

/// Take every recorded span, leaving the buffer empty.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().unwrap_or_else(|p| p.into_inner()))
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its children.  Children may overlap each other
/// (worker threads), so their intervals are merged before subtracting.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Render spans as a Chrome trace-event JSON document; `meta` is a
/// JSON object embedded as the document's metadata.
pub fn chrome_json(spans: &[Span], meta: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 128 + meta.len() + 64);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"metadata\": ");
    out.push_str(meta);
    out.push_str(", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"req\": {}}}}}",
            s.name,
            s.name.split('.').next().unwrap_or(s.name),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            parent,
            s.req
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            req: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (covering
        // 10..60 once), 90..120 sticks out past the parent's end.
        let spans = vec![
            sp(0, NO_PARENT, 0, 100),
            sp(1, 0, 10, 40),
            sp(2, 0, 30, 60),
            sp(3, 0, 90, 120),
            sp(4, 1, 15, 20),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 100 - 50 - 10);
        assert_eq!(st[&1], 30 - 5);
        assert_eq!(st[&2], 30);
        assert_eq!(st[&4], 5);
    }

    #[test]
    fn self_time_of_leaf_and_nested_children() {
        let spans = vec![
            sp(0, NO_PARENT, 0, 10),
            sp(1, 0, 2, 8),
            sp(2, 0, 3, 5),
            sp(3, NO_PARENT, 20, 30),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 4);
        assert_eq!(st[&3], 10);
    }

    #[test]
    fn spans_nest_by_thread_and_export() {
        set_enabled(true);
        {
            let _outer = span("test.outer", 7);
            let _inner = span("test.inner", 7);
        }
        set_enabled(false);
        let _ignored = span("test.off", 0);
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        assert_eq!(spans.len(), 2, "{spans:?}");
        let outer = spans
            .iter()
            .find(|s| s.name == "test.outer")
            .expect("outer");
        let inner = spans
            .iter()
            .find(|s| s.name == "test.inner")
            .expect("inner");
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, NO_PARENT);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let doc = chrome_json(&spans, "{}");
        assert!(doc.contains("\"name\": \"test.inner\""));
        assert!(doc.contains(&format!("\"parent\": {}", outer.id)));
    }
}
