//! Measurement utilities for the CPHash evaluation.
//!
//! The paper's numbers were gathered with a small profiling library built on
//! `rdtsc`/`rdpmc` plus a kernel module (§5).  This reproduction has the
//! timing half only (miss counts need hardware counters):
//!
//! * [`cycles`] — a timestamp-counter reader (`rdtsc` on x86-64, a
//!   monotonic-clock fallback elsewhere) and cycle↔time conversion.
//! * [`timer`] — the wall-clock stopwatch behind "queries / second" style
//!   results.
//! * [`histogram`] — log-bucketed latency histograms with percentile
//!   extraction.
//! * [`series`] — labelled (x, y) series and CSV/gnuplot-style rendering,
//!   the output format of every figure-regenerating benchmark binary.
//! * [`batch`] — counters for the batched, prefetch-pipelined server hot
//!   loop (batches, occupancy, prefetches issued).
//! * [`registry`] — the metrics plane: named counters/gauges/histograms
//!   with per-worker sharded atomics, typed snapshots, and a
//!   Prometheus-text renderer (what `cpserverd --stats-addr` serves).
//! * [`trace`] — zero-cost-when-off, cycle-stamped stage tracing of the
//!   operation hot path, with per-thread event rings and per-stage
//!   histograms (`cpserverd --trace`).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod batch;
pub mod cycles;
pub mod histogram;
pub mod registry;
pub mod series;
pub mod timer;
pub mod trace;

pub use batch::{BatchCounters, BatchStats};
pub use cycles::{cycles_now, estimate_cycles_per_second, CycleSpan};
pub use histogram::LatencyHistogram;
pub use registry::{
    parse_prometheus_text, Counter, HistogramSnapshot, MetricSample, MetricValue, MetricsRegistry,
    MetricsSnapshot, ParsedSample,
};
pub use series::{DataPoint, DataSeries, FigureReport};
pub use timer::Stopwatch;
pub use trace::{StageSpan, TraceEvent, TraceReport, TraceStage};
