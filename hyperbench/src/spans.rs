//! In-memory span trace for the traced run.
//!
//! Spans are recorded from the benchmark's own calls into the program —
//! one root span per timed op, children around the layer calls it can see
//! (engine group runs through a [`Recorder`], `RoundNetwork::ship`
//! through a wrapper) — and kept as `(name, start, end, parent, op)` in
//! memory until the run ends, when [`Trace::write_jsonl`] writes them out.
//! A layer's self time is its span minus the part its children cover.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use hyperpath_sim::trace::{CountingRecorder, Recorder};

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;
/// Op id of a span that belongs to no timed op (replays, set-up).
pub const NO_OP: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in [`Trace::spans`], or [`ROOT`].
    pub parent: u32,
    /// The timed op this span belongs to, or [`NO_OP`].
    pub op: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// All spans of one run.
pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
    ops: u32,
}

impl Trace {
    pub fn new() -> Self {
        Trace { epoch: Instant::now(), spans: Vec::with_capacity(1 << 16), ops: 0 }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocates the id of the next timed op.
    pub fn next_op(&mut self) -> u32 {
        self.ops += 1;
        self.ops - 1
    }

    /// Records a finished span and returns its index.
    pub fn push(&mut self, name: &'static str, start: u64, end: u64, parent: u32, op: u32) -> u32 {
        self.spans.push(Span { name, start, end, parent, op });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, op: u32) -> u32 {
        let t = self.now();
        self.push(name, t, t, parent, op)
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end = self.now();
    }

    /// Self time of every span: its duration minus the durations of its
    /// children (children of one parent never overlap — they are
    /// sequential calls).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            let op = if s.op == NO_OP { "null".to_string() } else { s.op.to_string() };
            writeln!(
                w,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"op":{op}}}"#,
                s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

/// A [`Recorder`] for one tenant round: counts the engine's work exactly
/// (through the program's own [`CountingRecorder`]) and records one span
/// per window-group engine run, from the run's first injection to its
/// last step. Every engine run injects flow (or worm) 0 first, which is
/// how a new run is told from the previous one.
pub struct EngineProbe<'t> {
    trace: &'t mut Trace,
    name: &'static str,
    parent: u32,
    op: u32,
    run_start: Option<u64>,
    last_step: Option<u64>,
    /// Engine runs seen.
    pub runs: u64,
    pub counts: CountingRecorder,
}

impl<'t> EngineProbe<'t> {
    pub fn new(trace: &'t mut Trace, name: &'static str, parent: u32, op: u32) -> Self {
        EngineProbe {
            trace,
            name,
            parent,
            op,
            run_start: None,
            last_step: None,
            runs: 0,
            counts: CountingRecorder::new(),
        }
    }

    fn close_run(&mut self) {
        if let Some(start) = self.run_start.take() {
            let end = self.last_step.take().unwrap_or(start).max(start);
            self.trace.push(self.name, start, end, self.parent, self.op);
            self.runs += 1;
        }
    }

    /// Closes the open engine span and returns the counts.
    pub fn finish(mut self) -> (CountingRecorder, u64) {
        self.close_run();
        (self.counts, self.runs)
    }
}

impl Recorder for EngineProbe<'_> {
    fn record_step(&mut self, step: u64, busy_links: u64) {
        self.last_step = Some(self.trace.now());
        self.counts.record_step(step, busy_links);
    }

    fn record_injection(&mut self, flow: u32, packets: u64, step: u64) {
        if flow == 0 {
            self.close_run();
            self.run_start = Some(self.trace.now());
        }
        self.counts.record_injection(flow, packets, step);
    }

    fn record_delivery(&mut self, flow: u32, step: u64) {
        self.counts.record_delivery(flow, step);
    }

    fn record_drop(&mut self, flow: u32, step: u64) {
        self.counts.record_drop(flow, step);
    }

    fn record_corrupt(&mut self, flow: u32, step: u64) {
        self.counts.record_corrupt(flow, step);
    }

    fn record_queue_push(&mut self, link: u32, count: u64) {
        self.counts.record_queue_push(link, count);
    }

    fn record_flit_moves(&mut self, count: u64) {
        self.counts.record_flit_moves(count);
    }
}

/// Adds `c`'s counts into `into`.
pub fn add_counts(into: &mut CountingRecorder, c: &CountingRecorder) {
    into.steps += c.steps;
    into.busy_total += c.busy_total;
    into.queue_pushes += c.queue_pushes;
    into.queue_depth_sum += c.queue_depth_sum;
    into.injected += c.injected;
    into.delivered += c.delivered;
    into.dropped += c.dropped;
    into.flit_moves += c.flit_moves;
    into.corrupted += c.corrupted;
}
