//! The benchmark's own span recorder, kept in memory and written out when a
//! traced run ends, plus a sink wrapper that times the batches a producer
//! delivers. Both sit outside the program: they time calls into the public
//! layer API, never code inside it.

use flowmon::sink::FlowSink;
use flowmon::FlowRecord;
use std::time::{Duration, Instant};

/// One named interval. Aggregate spans (`calls > 1`) sum many short
/// intervals, such as every batch a sink accepted, under one name.
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub dur_s: f64,
    pub calls: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, Instant)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: impl Into<String>) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            name: name.into(),
            parent: self.open.last().map(|&(id, _)| id),
            start_s: (now - self.origin).as_secs_f64(),
            dur_s: 0.0,
            calls: 1,
        });
        let id = self.spans.len() - 1;
        self.open.push((id, now));
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: usize) {
        let (top, start) = self.open.pop().expect("close without open span");
        assert_eq!(top, id, "spans must close innermost first");
        self.spans[id].dur_s = start.elapsed().as_secs_f64();
    }

    /// Time `f` as one span.
    pub fn time<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Add `busy` to the aggregate span `name` under the innermost open
    /// span, creating it on first use.
    pub fn add(&mut self, name: &str, busy: Duration, calls: u64) {
        let parent = self.open.last().map(|&(id, _)| id);
        let start_s = self.origin.elapsed().as_secs_f64() - busy.as_secs_f64();
        match self
            .spans
            .iter_mut()
            .find(|s| s.parent == parent && s.name == name)
        {
            Some(span) => {
                span.dur_s += busy.as_secs_f64();
                span.calls += calls;
            }
            None => self.spans.push(Span {
                name: name.to_string(),
                parent,
                start_s,
                dur_s: busy.as_secs_f64(),
                calls,
            }),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |sum, s| sum + s.dur_s)
    }

    /// Time of span `id` not covered by its children.
    pub fn self_time(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_s)
            .sum();
        self.spans[id].dur_s - children
    }

    /// Self time summed over every span called `name`.
    pub fn total_self(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .fold(0.0, |sum, id| sum + self.self_time(id))
    }

    /// The part of the run no named layer accounts for: the self time of
    /// the root span and of every scenario span split into layer spans.
    /// (A layer span's own self time, such as synthesis around its timed
    /// sink, is that layer's work.)
    pub fn unaccounted(&self) -> f64 {
        (0..self.spans.len())
            .filter(|&id| {
                let s = &self.spans[id];
                s.parent.is_none() || s.name.starts_with("experiments.scenario.")
            })
            .filter(|&id| self.spans.iter().any(|s| s.parent == Some(id)))
            .map(|id| self.self_time(id))
            .sum()
    }
}

/// Times every batch delivered to `inner`. Producers deliver through
/// `accept_batch`, so the clock is read once per batch, not per record.
pub struct TimedSink<S> {
    pub inner: S,
    pub busy: Duration,
    pub batches: u64,
}

impl<S> TimedSink<S> {
    pub fn new(inner: S) -> TimedSink<S> {
        TimedSink {
            inner,
            busy: Duration::ZERO,
            batches: 0,
        }
    }
}

impl<S: FlowSink> FlowSink for TimedSink<S> {
    fn accept(&mut self, record: &FlowRecord) {
        self.accept_batch(std::slice::from_ref(record));
    }

    fn accept_batch(&mut self, records: &[FlowRecord]) {
        let start = Instant::now();
        self.inner.accept_batch(records);
        self.busy += start.elapsed();
        self.batches += 1;
    }
}
