//! The in-memory span log of the traced run.
//!
//! Every call into a layer from this package goes through [`Spans::timed`],
//! which always returns the call's wall time and, while recording is on,
//! also keeps a span: name, start, end, parent span and run id. The run id
//! is the closed-loop iteration, so all spans of one round of jobs share
//! it. Spans stay in memory and are written out once, at exit
//! ([`Spans::write_jsonl`]). The end-to-end timings wrap these calls in
//! [`crate::steal::timed`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where a span hangs: the iteration it belongs to and its parent span
/// (`0` for a root).
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub run: u64,
    pub parent: u64,
}

impl Ctx {
    pub fn root(run: u64) -> Self {
        Ctx { run, parent: 0 }
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub run: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// The span log. Shared by reference with manifest jobs on pool threads.
pub struct Spans {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Self {
        Spans {
            epoch,
            on: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        }
    }

    /// Start or stop recording. Timing continues either way.
    pub fn record(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Run `f`, returning its result and duration in seconds. While
    /// recording, the call becomes a span named `name` under `ctx`, and `f`
    /// receives the context its own child spans hang from.
    pub fn timed<R>(&self, name: &str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> (R, f64) {
        let on = self.on.load(Ordering::Relaxed);
        let id = if on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ctx.parent
        };
        let start = Instant::now();
        let r = f(Ctx {
            run: ctx.run,
            parent: id,
        });
        let end = Instant::now();
        if on {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.done.lock().expect("span log poisoned").push(Span {
                id,
                parent: ctx.parent,
                run: ctx.run,
                name: name.to_string(),
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
        (r, end.duration_since(start).as_secs_f64())
    }

    /// All recorded spans, in completion order.
    pub fn snapshot(&self) -> Vec<Span> {
        self.done.lock().expect("span log poisoned").clone()
    }

    /// Per run id, the summed duration of the spans whose name `matches`;
    /// runs with no such span are omitted.
    pub fn per_run_sums(&self, matches: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u64, f64> = Default::default();
        for s in self.snapshot().iter().filter(|s| matches(&s.name)) {
            *sums.entry(s.run).or_default() += s.secs();
        }
        sums.into_values().collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in self.snapshot() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.run,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
