//! The benchmark's span recorder: spans around each call into a layer,
//! kept in memory and written out as a Chrome trace when the run ends.
//!
//! Spans are recorded only for requests the caller marks as traced, so
//! one run can interleave traced and untraced requests and measure what
//! tracing costs.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are seconds since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `core.session.client_online`.
    pub name: &'static str,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<&'static str>,
    /// Request the span belongs to; spans of one request share it.
    pub req: u64,
    /// Recording thread.
    pub tid: u64,
    /// Start time.
    pub start_s: f64,
    /// End time.
    pub end_s: f64,
}

impl Span {
    /// Span duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Runs `f`, returning its result and wall time in seconds; records a
/// span named `name` for request `req` when `traced`.
pub fn timed<T>(traced: bool, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, f64) {
    if !traced {
        let t0 = Instant::now();
        let out = f();
        return (out, t0.elapsed().as_secs_f64());
    }
    let parent = OPEN.with(|o| {
        let mut o = o.borrow_mut();
        let parent = o.last().copied();
        o.push(name);
        parent
    });
    let start_s = epoch().elapsed().as_secs_f64();
    let out = f();
    let end_s = epoch().elapsed().as_secs_f64();
    OPEN.with(|o| o.borrow_mut().pop());
    record(Span {
        name,
        parent,
        req,
        tid: TID.with(|t| *t),
        start_s,
        end_s,
    });
    (out, end_s - start_s)
}

fn record(span: Span) {
    SPANS.lock().expect("span recorder poisoned").push(span);
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span recorder poisoned").clone()
}

/// Durations of every recorded span named `name`.
pub fn durations(name: &str) -> Vec<f64> {
    SPANS
        .lock()
        .expect("span recorder poisoned")
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_s)
        .collect()
}

/// Writes every recorded span as a Chrome trace (`chrome://tracing`,
/// Perfetto) to `path`.
///
/// # Errors
///
/// Fails if the file cannot be written.
pub fn write_chrome(path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans().iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.1},\"dur\":{:.1},\"args\":{{\"req\":{},\"parent\":\"{}\"}}}}",
            s.name,
            s.tid,
            s.start_s * 1e6,
            s.duration_s() * 1e6,
            s.req,
            s.parent.unwrap_or(""),
        ));
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}
