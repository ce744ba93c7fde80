//! In-memory spans recorded around calls into the program's layers.
//!
//! A span has a name (`<layer>.<call>`), a start and an end, the span
//! that caused it, and the request id it belongs to. Spans stay in
//! memory while the benchmark runs and are written out once at exit.
//! When tracing is off, [`Tracer::time`] still measures the call (the
//! end-to-end metrics need the duration) but records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Span id meaning "no parent".
pub const ROOT: u64 = 0;

/// Span ids at and above this are request spans, `REQUEST_IDS + request`,
/// so a send span can name its request as parent before the reply
/// arrives and the request span is recorded.
pub const REQUEST_IDS: u64 = 1 << 40;

#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    /// Request id shared by every span of one request (0 outside one).
    pub request: u64,
    /// Calls the span covers; a span around a loop of `calls` identical
    /// calls reports `duration / calls` per call.
    pub calls: u32,
    pub start: Instant,
    pub end: Instant,
}

impl SpanRecord {
    /// Seconds per call.
    pub fn per_call_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64() / f64::from(self.calls.max(1))
    }
}

pub struct Tracer {
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on: AtomicBool::new(on),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Turns span recording, and the program's own telemetry with it, on
    /// or off (a traced run measures an untraced stretch first, to
    /// report the tracing overhead).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
        metaai_telemetry::set_enabled(on);
    }

    /// A fresh span id for a span recorded later with [`record`](Self::record)
    /// (so its children can name it while it is still open).
    pub fn open(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f`, returns its result and duration, and records a span
    /// under `parent` when tracing is on. `f` receives the span's own id,
    /// to pass to the spans it causes.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        self.time_calls(name, parent, 1, f)
    }

    /// [`time`](Self::time) for a loop of `calls` identical calls.
    pub fn time_calls<R>(
        &self,
        name: &'static str,
        parent: u64,
        calls: u32,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let on = self.on();
        let id = if on { self.open() } else { ROOT };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if on {
            self.push(SpanRecord {
                id,
                parent,
                name,
                request: 0,
                calls,
                start,
                end,
            });
        }
        (out, end - start)
    }

    /// Records a span whose ends were measured elsewhere.
    pub fn record(&self, span: SpanRecord) {
        if self.on() {
            self.push(span);
        }
    }

    fn push(&self, span: SpanRecord) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Per-call durations of every span named `name`, in seconds.
    pub fn per_call_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::per_call_s)
            .collect()
    }

    /// Total and self time per span name. A span's self time is its
    /// duration minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut children: BTreeMap<u64, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != ROOT) {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in spans.iter() {
            let total = s.end - s.start;
            let covered = children
                .get_mut(&s.id)
                .map_or(Duration::ZERO, |c| covered(c, s.start, s.end));
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.total += total;
            t.self_time += total.saturating_sub(covered);
        }
        out
    }

    /// Writes every span (one tab-separated line each, times in µs from
    /// `t0`) and the self-time table to `path`.
    pub fn write(&self, path: &std::path::Path, t0: Instant) -> std::io::Result<()> {
        let mut text = String::from("# id\tparent\tname\trequest\tcalls\tstart_us\tend_us\n");
        let us = |t: Instant| t.saturating_duration_since(t0).as_secs_f64() * 1e6;
        for s in self.spans.lock().expect("span buffer poisoned").iter() {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{:.3}\t{:.3}",
                s.id,
                s.parent,
                s.name,
                s.request,
                s.calls,
                us(s.start),
                us(s.end)
            );
        }
        text.push_str("# self time per span name: name\tspans\ttotal_ms\tself_ms\n");
        for (name, t) in self.self_times() {
            let _ = writeln!(
                text,
                "# {name}\t{}\t{:.3}\t{:.3}",
                t.spans,
                t.total.as_secs_f64() * 1e3,
                t.self_time.as_secs_f64() * 1e3
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub spans: usize,
    pub total: Duration,
    pub self_time: Duration,
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(Instant, Instant)], lo: Instant, hi: Instant) -> Duration {
    intervals.sort_by_key(|&(s, _)| s);
    let mut total = Duration::ZERO;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let span = |id, parent, name, s, e| SpanRecord {
            id,
            parent,
            name,
            request: 7,
            calls: 1,
            start: at(s),
            end: at(e),
        };
        t.record(span(1, ROOT, "outer", 0, 100));
        // Two overlapping children cover 10..50; a third covers 80..100.
        t.record(span(2, 1, "inner", 10, 40));
        t.record(span(3, 1, "inner", 30, 50));
        t.record(span(4, 1, "inner", 80, 120));
        let times = t.self_times();
        assert_eq!(times["outer"].self_time, Duration::from_micros(40));
        assert_eq!(times["inner"].spans, 3);
        assert_eq!(times["inner"].self_time, Duration::from_micros(90));
    }

    #[test]
    fn an_untraced_timer_measures_but_records_nothing() {
        let t = Tracer::new(false);
        let (v, d) = t.time("x", ROOT, |_| {
            std::thread::sleep(Duration::from_millis(2));
            5
        });
        assert_eq!(v, 5);
        assert!(d >= Duration::from_millis(2));
        assert!(t.per_call_s("x").is_empty());
    }
}
