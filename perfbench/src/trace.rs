//! Spans recorded around the calls into each layer, from outside the
//! program: a [`TracedSource`] that forwards a [`ShardSource`], a
//! [`TracedObjective`] that forwards an [`Objective`], and step boundaries
//! taken from a `RunControl` progress hook. Spans stay in memory and are
//! written out once, when the run ends.

use fair_core::dca::Objective;
use fair_core::ranking::Ranker;
use fair_core::shard::{ShardSource, ShardView};
use fair_core::{EvalScratch, SampleView, SchemaRef};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The descent or audit this span belongs to.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The layer a span name belongs to: the part before the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

thread_local! {
    /// Ids of the spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The span store of one traced run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    /// The current operation id and its root span: the fallback parent of
    /// spans opened on pool threads, which have no open span of their own.
    op: AtomicU64,
    root: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// The open step span of the current descent: `(id, start_ns)`.
    step: Mutex<Option<(u64, u64)>>,
}

/// An open span; closing it records the interval.
pub struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            op: AtomicU64::new(0),
            root: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            step: Mutex::new(None),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Open a span under the innermost span open on this thread (or the
    /// current operation's root on a thread with none).
    pub fn open(&self, name: &'static str) -> Open<'_> {
        let id = self.id();
        let parent = OPEN.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s
                .last()
                .copied()
                .unwrap_or_else(|| self.root.load(Ordering::Relaxed));
            s.push(id);
            parent
        });
        Open {
            tracer: self,
            id,
            parent,
            op: self.op.load(Ordering::Relaxed),
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Start operation `op` (a descent or an audit): opens its root span.
    pub fn begin_op(&self, op: u64, name: &'static str) -> Open<'_> {
        self.op.store(op, Ordering::Relaxed);
        let root = self.open(name);
        self.root.store(root.id, Ordering::Relaxed);
        root
    }

    /// Open the first step span of a descent.
    pub fn begin_steps(&self) {
        let id = self.id();
        let start = self.now_ns();
        OPEN.with(|s| s.borrow_mut().push(id));
        *self.step.lock().unwrap() = Some((id, start));
    }

    /// A step boundary (called from the progress hook on the descent
    /// thread): closes the current step span and opens the next one.
    pub fn step_done(&self, step: usize, total: usize) {
        let now = self.now_ns();
        let mut slot = self.step.lock().unwrap();
        let Some((id, start)) = slot.take() else {
            return;
        };
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&id) {
                s.pop();
            }
        });
        self.record(Span {
            id,
            parent: self.root.load(Ordering::Relaxed),
            op: self.op.load(Ordering::Relaxed),
            name: "dca.step",
            start_ns: start,
            end_ns: now,
        });
        if step < total {
            let next = self.id();
            OPEN.with(|s| s.borrow_mut().push(next));
            *slot = Some((next, now));
        }
    }

    /// Drop a step span left open by a descent that stopped early.
    pub fn end_steps(&self) {
        if let Some((id, _)) = self.step.lock().unwrap().take() {
            OPEN.with(|s| s.borrow_mut().retain(|&x| x != id));
        }
    }

    fn record(&self, span: Span) {
        self.spans.lock().unwrap().push(span);
    }

    /// Time `f` under a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.open(name);
        let out = f();
        span.close();
        out
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().unwrap().clone()
    }

    /// Write every span as one JSON line to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().unwrap().iter() {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"op":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Open<'_> {
    pub fn close(self) {
        let end_ns = self.tracer.now_ns();
        OPEN.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&x| x == self.id) {
                s.remove(pos);
            }
        });
        self.tracer.record(Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (overlapping children, from pool threads, count once).
pub fn self_times(spans: &[Span]) -> Vec<(&Span, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Total self time per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> HashMap<String, u64> {
    let mut out: HashMap<String, u64> = HashMap::new();
    for (s, own) in self_times(spans) {
        *out.entry(layer_of(s.name).to_string()).or_default() += own;
    }
    out
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// A [`ShardSource`] that forwards every call to `inner` and records spans
/// around the three calls the engine makes: `sample_indices_into`
/// (`shard.sample`), `with_shard` (`store.with_shard`, paged sources only —
/// its self time is the page-in) and the closure it lends the shard to
/// (`closure`, e.g. `shard.gather`).
pub struct TracedSource<'a, S: ?Sized> {
    pub inner: &'a S,
    pub tracer: &'a Tracer,
    pub closure: &'static str,
    with_shard_calls: AtomicU64,
}

impl<'a, S: ShardSource + ?Sized> TracedSource<'a, S> {
    pub fn new(inner: &'a S, tracer: &'a Tracer, closure: &'static str) -> Self {
        Self {
            inner,
            tracer,
            closure,
            with_shard_calls: AtomicU64::new(0),
        }
    }

    /// `with_shard` calls forwarded so far.
    pub fn with_shard_calls(&self) -> u64 {
        self.with_shard_calls.load(Ordering::Relaxed)
    }
}

impl<S: ShardSource + ?Sized> ShardSource for TracedSource<'_, S> {
    fn schema(&self) -> &SchemaRef {
        self.inner.schema()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn shard_size(&self) -> usize {
        self.inner.shard_size()
    }

    fn num_shards(&self) -> usize {
        self.inner.num_shards()
    }

    fn paged(&self) -> bool {
        self.inner.paged()
    }

    fn with_shard<T>(&self, index: usize, f: impl FnOnce(ShardView<'_>) -> T) -> T {
        self.with_shard_calls.fetch_add(1, Ordering::Relaxed);
        let outer = self
            .inner
            .paged()
            .then(|| self.tracer.open("store.with_shard"));
        let out = self.inner.with_shard(index, |view| {
            let span = self.tracer.open(self.closure);
            let out = f(view);
            span.close();
            out
        });
        if let Some(outer) = outer {
            outer.close();
        }
        out
    }

    fn sample_indices_into(
        &self,
        seed: u64,
        size: usize,
        out: &mut Vec<usize>,
    ) -> fair_core::Result<()> {
        self.tracer.time("shard.sample", || {
            self.inner.sample_indices_into(seed, size, out)
        })
    }
}

/// An [`Objective`] that forwards `evaluate_into` under a `score.evaluate`
/// span and counts the rows it scored.
pub struct TracedObjective<'a, O> {
    pub inner: &'a O,
    pub tracer: &'a Tracer,
    rows: AtomicU64,
}

impl<'a, O> TracedObjective<'a, O> {
    pub fn new(inner: &'a O, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            rows: AtomicU64::new(0),
        }
    }

    /// Rows scored so far.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

impl<O: Objective> Objective for TracedObjective<'_, O> {
    fn evaluate_into<R: Ranker + ?Sized>(
        &self,
        view: &SampleView<'_>,
        ranker: &R,
        bonus: &[f64],
        scratch: &mut EvalScratch,
        out: &mut Vec<f64>,
    ) -> fair_core::Result<()> {
        self.rows.fetch_add(view.len() as u64, Ordering::Relaxed);
        self.tracer.time("score.evaluate", || {
            self.inner.evaluate_into(view, ranker, bonus, scratch, out)
        })
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, 0, "dca.step", 0, 100),
            span(2, 1, "shard.gather", 10, 40),
            // Overlaps the first child (another thread): counted once.
            span(3, 1, "shard.gather", 30, 50),
            span(4, 1, "score.evaluate", 60, 70),
        ];
        let own: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(own, vec![100 - 40 - 10, 30, 20, 10]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["dca"], 50);
        assert_eq!(layers["shard"], 50);
        assert_eq!(layers["score"], 10);
    }

    #[test]
    fn spans_nest_on_one_thread_and_fall_back_to_the_root_elsewhere() {
        let tracer = Tracer::new();
        let root = tracer.begin_op(9, "dca.descent");
        let root_id = root.id;
        let outer = tracer.open("store.with_shard");
        let outer_id = outer.id;
        tracer.time("shard.gather", || {});
        outer.close();
        std::thread::scope(|s| {
            s.spawn(|| tracer.time("shard.gather", || {}));
        });
        root.close();
        let spans = tracer.spans();
        let parent_of = |name: &str, nth: usize| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .nth(nth)
                .unwrap()
                .parent
        };
        assert_eq!(parent_of("shard.gather", 0), outer_id);
        assert_eq!(parent_of("store.with_shard", 0), root_id);
        assert_eq!(parent_of("shard.gather", 1), root_id);
        assert!(spans.iter().all(|s| s.op == 9));
    }
}
