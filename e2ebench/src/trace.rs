//! In-memory spans for the traced run.
//!
//! Each span records a name, start, end, the span open on the same thread
//! when it began (its parent) and the job it belongs to. Spans are kept in
//! memory and written out once, at the end of the run, so the only cost on
//! the measured path is two clock reads and a vector push per span.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The job id new spans on this thread are tagged with.
    static JOB: Cell<u64> = const { Cell::new(0) };
}

/// Tags spans opened on this thread from now on with `job`.
pub fn set_job(job: u64) {
    JOB.with(|j| j.set(job));
}

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// The span open on the same thread when this one began.
    pub parent: Option<u64>,
    /// Layer name, e.g. `eval.select`.
    pub name: &'static str,
    /// Job (scenario or served request) the span belongs to.
    pub job: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time each span's children cover.
    pub self_ns: u64,
}

/// The span collector. Share it as `Arc<Tracer>` between threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            job: JOB.with(Cell::get),
            start_ns: self.now_ns(),
        }
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("span buffer lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }

    /// Totals and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &spans {
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            layer.total_ns += s.dur_ns();
            // Children run on the span's own thread, inside its interval
            // and one after another, so their summed durations are the
            // part of the interval they cover.
            layer.self_ns += s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        out
    }

    /// `(calls, total ns)` of spans named `name` that have an ancestor
    /// named `ancestor`.
    pub fn under(&self, name: &str, ancestor: &str) -> (u64, u64) {
        let spans = self.spans();
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let has_ancestor = |s: &Span| {
            let mut cur = s.parent;
            while let Some(id) = cur {
                let Some(p) = by_id.get(&id) else { break };
                if p.name == ancestor {
                    return true;
                }
                cur = p.parent;
            }
            false
        };
        spans
            .iter()
            .filter(|s| s.name == name && has_ancestor(s))
            .fold((0, 0), |(n, ns), s| (n + 1, ns + s.dur_ns()))
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"parent":{parent},"name":"{}","job":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.name, s.job, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; records it on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    job: u64,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            job: self.job,
            start_ns: self.start_ns,
            end_ns,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nesting_sets_parents_jobs_and_self_time() {
        let tracer = Tracer::new();
        set_job(7);
        {
            let _outer = tracer.span("outer");
            spin(200_000);
            for _ in 0..2 {
                let _inner = tracer.span("inner");
                spin(100_000);
            }
        }
        set_job(0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, None);
        assert!(spans
            .iter()
            .filter(|s| s.name == "inner")
            .all(|s| s.parent == Some(outer.id) && s.job == 7));

        let layers = tracer.layers();
        let (o, i) = (layers["outer"], layers["inner"]);
        assert_eq!((o.calls, i.calls), (1, 2));
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(i.self_ns, i.total_ns);
        assert_eq!(tracer.under("inner", "outer"), (2, i.total_ns));
        assert_eq!(tracer.under("outer", "inner"), (0, 0));
    }

    #[test]
    fn dump_writes_one_line_per_span() {
        let tracer = Tracer::new();
        drop(tracer.span("a"));
        drop(tracer.span("b"));
        let dir = Path::new(crate::OUT_DIR).join(format!("trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("spans.jsonl");
        tracer.dump(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with(r#"{"id":"#)));
    }
}
