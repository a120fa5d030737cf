//! The recorder every timed call goes through: latency samples for the
//! plain run, and — in the traced run — spans with exact field-operation
//! and heap-allocation deltas, kept in memory and written out at exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use field::{FpContext, OpCount};
use platform::ExecutionReport;

/// Counts heap allocations while [`Recorder`] tracing is on. With tracing
/// off (the plain run) an allocation pays one relaxed load and a branch
/// that is never taken; the counter itself is never touched.
pub struct CountingAlloc;

static COUNT_ALLOCS: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Allocations made by this thread while counting was on. The
    /// benchmark's single client thread makes every counted call.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    if COUNT_ALLOCS.load(Ordering::Relaxed) {
        // `try_with`: the slot may already be gone while the thread exits.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over. Counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: `ptr`/`layout` describe a live `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One timed call into a library layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<op>[.<variant>]`, e.g. `ecc.shared_secret.p256`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span (the benchmark's own per-call root).
    pub parent: Option<usize>,
    /// Every span of one benchmark operation shares this id.
    pub op: u64,
    /// Exact `FpContext::op_count` delta, when the call runs over a field.
    pub fp: Option<OpCount>,
    /// Heap allocations made inside the call.
    pub allocs: u64,
    /// The simulator's report, for platform drivers.
    pub sim: Option<ExecutionReport>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One timed library call. Eight bytes, so that the benchmark's own record
/// of a run barely moves the process's peak resident set.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Start of the call, in µs from the run's epoch.
    pub start_us: u32,
    pub ns: u32,
}

impl Sample {
    pub fn start_ns(&self) -> u64 {
        u64::from(self.start_us) * 1000
    }
}

/// Latency samples, outcome counts and (when tracing) spans of one phase.
pub struct Recorder {
    tracing: bool,
    epoch: Instant,
    /// Every timed library call, in order.
    pub samples: Vec<Sample>,
    /// Operations completed by timed calls (a batch of 8 counts 8).
    pub ops: u64,
    pub busy_ns: u64,
    /// Busy time of the timed calls per layer (the span name's prefix).
    pub busy_by_layer: Vec<(&'static str, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
    root: Option<usize>,
    next_op: u64,
}

impl Recorder {
    pub fn new(tracing: bool, epoch: Instant) -> Self {
        COUNT_ALLOCS.store(tracing, Ordering::Relaxed);
        Recorder {
            tracing,
            epoch,
            samples: Vec::new(),
            ops: 0,
            busy_ns: 0,
            busy_by_layer: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            root: None,
            next_op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the benchmark's own root span for one deck entry; the timed
    /// library calls and the untimed checks of that entry nest under it.
    pub fn begin(&mut self, name: &'static str) {
        self.next_op += 1;
        if self.tracing {
            let start = self.now_ns();
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: start,
                parent: None,
                op: self.next_op,
                fp: None,
                allocs: 0,
                sim: None,
            });
            self.root = Some(self.spans.len() - 1);
        }
    }

    pub fn end(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root].end_ns = self.now_ns();
        }
    }

    /// Times one call into a library layer. `ops` is how many operations
    /// the call completes; `fp` is the field whose exact operation counts
    /// the traced run attributes to the call.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        ops: u64,
        fp: Option<&FpContext>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.tracing {
            let start = Instant::now();
            let out = f();
            let ns = start.elapsed().as_nanos() as u64;
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.record(name, ops, start_ns, ns);
            return out;
        }
        let fp_before = fp.map(FpContext::op_count);
        let allocs_before = allocs();
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let allocs_during = allocs() - allocs_before;
        let fp_delta = fp.zip(fp_before).map(|(c, b)| c.op_count().since(&b));
        self.record(name, ops, start_ns, end_ns - start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.root,
            op: self.next_op,
            fp: fp_delta,
            allocs: allocs_during,
            sim: None,
        });
        out
    }

    fn record(&mut self, name: &'static str, ops: u64, start_ns: u64, ns: u64) {
        self.samples.push(Sample {
            start_us: (start_ns / 1000) as u32,
            ns: ns.min(u64::from(u32::MAX)) as u32,
        });
        self.ops += ops;
        self.busy_ns += ns;
        let layer = name.split('.').next().unwrap_or(name);
        match self.busy_by_layer.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, t)) => *t += ns,
            None => self.busy_by_layer.push((layer, ns)),
        }
    }

    /// Attaches the simulator's report to the span just recorded.
    pub fn annotate(&mut self, report: ExecutionReport) {
        if let Some(span) = self.spans.last_mut() {
            span.sim = Some(report);
        }
    }

    /// Settles the output check of `calls` library calls.
    pub fn settle(&mut self, calls: u64, ok: bool, what: &str) {
        self.attempted += calls;
        if !ok {
            self.failed += calls;
            eprintln!("check failed: {what}");
        }
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover (children never overlap: one client thread).
    pub fn self_times(&self) -> Vec<(&'static str, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.ns();
            }
        }
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(child_ns) {
            let own = span.ns().saturating_sub(covered);
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, t)) => *t += own,
                None => totals.push((span.name, own)),
            }
        }
        totals.sort_by_key(|t| std::cmp::Reverse(t.1));
        totals
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"allocs\":{}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                s.ns() as f64 / 1e3,
                s.op,
                s.allocs,
            );
            if let Some(c) = s.fp {
                let _ = write!(
                    out,
                    ",\"fp_mul\":{},\"fp_add\":{},\"fp_sub\":{},\"fp_inv\":{}",
                    c.mul, c.add, c.sub, c.inv
                );
            }
            if let Some(r) = s.sim {
                let _ = write!(
                    out,
                    ",\"sim_cycles\":{},\"modmuls\":{},\"modadds\":{},\"modsubs\":{}",
                    r.cycles, r.modmuls, r.modadds, r.modsubs
                );
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}
