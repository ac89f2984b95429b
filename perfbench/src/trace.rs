//! The traced run's instruments: spans recorded by the benchmark around
//! its calls into each layer, and the program's own counters read from
//! the metrics registry.

use satiot_obs::metrics::Counter;
use std::collections::HashSet;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start, seconds since the tracer was created.
    pub start_s: f64,
    /// End, seconds since the tracer was created.
    pub end_s: f64,
}

impl Span {
    /// Duration, seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span recorder. Layer spans do not nest, so a span's self
/// time is its duration.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_s = self.t0.elapsed().as_secs_f64();
        let out = f();
        self.spans.push(Span {
            name,
            start_s,
            end_s: self.t0.elapsed().as_secs_f64(),
        });
        out
    }

    /// Every span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of the spans named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.dur_s())
    }
}

/// Registry counters the per-layer metrics read, by name.
pub const COUNTER_NAMES: [&str; 13] = [
    "orbit.sgp4.propagate_calls",
    "orbit.ephemeris.grids_built",
    "orbit.visibility.margins",
    "orbit.visibility.events",
    "orbit.visibility.candidates",
    "orbit.pass.passes_predicted",
    "channel.batch.elements",
    "channel.budget.samples",
    "core.passive.beacons_emitted",
    "core.passive.beacons_decoded",
    "sim.engine.events_processed",
    "measure.sink.traces_retained",
    "sim.pool.tasks_executed",
];

/// Handles sharing the program's atomics by name (same order as
/// [`COUNTER_NAMES`]); they read zero while metrics are off.
static HANDLES: [Counter; 13] = [
    Counter::new(COUNTER_NAMES[0]),
    Counter::new(COUNTER_NAMES[1]),
    Counter::new(COUNTER_NAMES[2]),
    Counter::new(COUNTER_NAMES[3]),
    Counter::new(COUNTER_NAMES[4]),
    Counter::new(COUNTER_NAMES[5]),
    Counter::new(COUNTER_NAMES[6]),
    Counter::new(COUNTER_NAMES[7]),
    Counter::new(COUNTER_NAMES[8]),
    Counter::new(COUNTER_NAMES[9]),
    Counter::new(COUNTER_NAMES[10]),
    Counter::new(COUNTER_NAMES[11]),
    Counter::new(COUNTER_NAMES[12]),
];

/// A reading of the registry counters in [`COUNTER_NAMES`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([u64; 13]);

impl Counters {
    /// Read the registry now.
    pub fn read() -> Counters {
        Counters(std::array::from_fn(|i| HANDLES[i].value()))
    }

    /// The counter named `name` (zero for a name not in the list).
    pub fn get(&self, name: &str) -> u64 {
        COUNTER_NAMES
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.0[i])
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &Counters) -> Counters {
        Counters(std::array::from_fn(|i| self.0[i] + other.0[i]))
    }
}

/// The traced run's recorder.
#[derive(Debug, Default)]
pub struct TraceCtx {
    /// Spans of every layer call.
    pub tr: Tracer,
    /// SGP4 propagations inside the grid-build spans.
    pub grid_build_sgp4_calls: u64,
    /// Attribution-check failures: campaign calls after the split that
    /// still computed pass lists or grids.
    pub attribution: Vec<String>,
    /// Registry counts recorded inside probe spans.
    pub probe_counters: Counters,
    /// CPU seconds spent inside probe spans.
    pub probe_cpu_s: f64,
    /// (site, window start and end bits, constellation) groups the
    /// split has predicted this run; a group's pass lists are cached
    /// together.
    pub primed: HashSet<(&'static str, u64, u64, &'static str)>,
}

impl TraceCtx {
    /// Run `f` in a probe span: work done only to attribute time, which
    /// the campaign does not repeat. Its time, CPU and counts are kept
    /// apart so they can be taken out of the traced totals.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (c0, cpu0) = (Counters::read(), crate::procfs::cpu_s());
        let out = self.tr.span(name, f);
        self.probe_cpu_s += crate::procfs::cpu_s() - cpu0;
        self.probe_counters = self.probe_counters.plus(&Counters::read().since(&c0));
        out
    }
}
