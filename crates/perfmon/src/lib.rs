//! Measurement utilities for the CPHash evaluation.
//!
//! The paper's numbers were gathered with a small profiling library built on
//! `rdtsc`/`rdpmc` plus a kernel module (§5).  This reproduction has the
//! timing half only (miss counts need hardware counters):
//!
//! * [`cycles`] — a timestamp-counter reader (`rdtsc` on x86-64, a
//!   monotonic-clock fallback elsewhere) and cycle↔time conversion.
//! * [`timer`] — stopwatches and throughput meters for "queries / second"
//!   style results.
//! * [`histogram`] — log-bucketed latency histograms with percentile
//!   extraction.
//! * [`series`] — labelled (x, y) series and CSV/gnuplot-style rendering,
//!   the output format of every figure-regenerating benchmark binary.
//! * [`load`] — smoothed load gauges (EWMA), the low-pass filter behind the
//!   migration pacer's queue-depth feedback loop.
//! * [`batch`] — counters for the batched, prefetch-pipelined server hot
//!   loop (batches, occupancy, prefetches issued).
//! * [`window`] — a shared windowed latency histogram, the p99 signal
//!   source for the migration pacer's latency-feedback mode.
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
pub mod load;
pub mod registry;
pub mod series;
pub mod timer;
pub mod trace;
pub mod window;

pub use batch::{BatchCounters, BatchStats};
pub use cycles::{cycles_now, estimate_cycles_per_second, CycleSpan};
pub use histogram::LatencyHistogram;
pub use load::EwmaGauge;
pub use registry::{
    parse_prometheus_text, Counter, Gauge, Histogram, HistogramSnapshot, MetricSample, MetricValue,
    MetricsRegistry, MetricsSnapshot, ParsedSample,
};
pub use series::{DataPoint, DataSeries, FigureReport};
pub use timer::{Stopwatch, ThroughputMeter};
pub use trace::{StageSpan, TraceEvent, TraceReport, TraceStage};
pub use window::SharedLatencyWindow;
