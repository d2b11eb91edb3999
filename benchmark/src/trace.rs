//! Harness-side spans and work counts around the calls into each layer.
//!
//! A span is recorded *here*, around a call into a layer's public
//! function — never inside `crates/*`. Spans live in memory and are written
//! out once, when the benchmark ends. A disabled tracer records nothing, so
//! the untraced pass runs the same kernel code with one predictable branch
//! per boundary.
//!
//! Independently of spans, every tracer keeps a *segment clock*: kernels
//! mark the boundaries between the small, fixed pieces of work a round is
//! made of, and the runner times a round as the sum of each piece's fastest
//! showing (see `stats::quiet_ns`).

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    /// `layer.operation`, e.g. `unwind.ctx`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The round the span belongs to.
    pub iter_id: u32,
    /// Units of work done inside the span (instructions, samples, …; 0
    /// when the span is only timed).
    pub work: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(u32);

const DISABLED: u32 = u32::MAX;

/// Span and counter recorder.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    iter_id: u32,
    /// Work counts of the round in progress.
    current: BTreeMap<&'static str, u64>,
    /// Work counts of each finished round.
    rounds: Vec<BTreeMap<&'static str, u64>>,
    /// When the segment in progress began.
    segment_start: Instant,
    /// Durations (ns) of the segments finished since [`Tracer::restart_clock`].
    segments: Vec<u64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iter_id: 0,
            current: BTreeMap::new(),
            rounds: Vec::new(),
            segment_start: Instant::now(),
            segments: Vec::new(),
        }
    }

    /// Starts the segment clock afresh: drops recorded segments and begins
    /// one now. Also how a kernel steps over work that must not be timed.
    pub fn restart_clock(&mut self) {
        self.segments.clear();
        self.segment_start = Instant::now();
    }

    /// Ends the segment in progress and begins the next.
    pub fn segment(&mut self) {
        let now = Instant::now();
        self.segments
            .push(now.duration_since(self.segment_start).as_nanos() as u64);
        self.segment_start = now;
    }

    /// Begins a new segment without recording the time since the last
    /// boundary — for traced-only probes the untraced pass does not run.
    pub fn skip_segment(&mut self) {
        self.segment_start = Instant::now();
    }

    /// The segments recorded since the clock was restarted.
    pub fn take_segments(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.segments)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(DISABLED);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(idx);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            iter_id: self.iter_id,
            work: 0,
        });
        Open(idx)
    }

    /// Closes `open`, recording the `work` done inside it.
    pub fn end(&mut self, open: Open, work: u64) {
        if open.0 == DISABLED {
            return;
        }
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.0), "spans must close innermost first");
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end_ns;
        span.work = work;
    }

    /// Runs `f` inside a span whose work is known beforehand.
    pub fn time<R>(&mut self, name: &'static str, work: u64, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let r = f();
        self.end(open, work);
        r
    }

    /// Files a span the layer timed itself (`dur_ns` long, ending now) —
    /// for work the harness cannot reach from outside, such as the stages
    /// inside `seal_epoch`. It becomes a child of the innermost open span.
    pub fn report(&mut self, name: &'static str, dur_ns: f64, work: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns as u64),
            end_ns,
            parent: self.open.last().copied(),
            iter_id: self.iter_id,
            work,
        });
    }

    /// Adds `n` to the named work count of the round in progress.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.current.entry(name).or_insert(0) += n;
        }
    }

    /// Ends the round in progress: its work counts are filed and later
    /// spans carry the next `iter_id`.
    pub fn next_round(&mut self) {
        if self.enabled {
            self.rounds.push(std::mem::take(&mut self.current));
            self.iter_id += 1;
        }
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Work counts per finished round.
    pub fn rounds(&self) -> &[BTreeMap<&'static str, u64>] {
        &self.rounds
    }

    /// Self time of every span: its duration minus the part covered by its
    /// direct children. Indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }
}
