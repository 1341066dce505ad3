//! A process-level metrics plane: named counters, gauges and histograms
//! with a typed snapshot and a Prometheus-text-exposition renderer.
//!
//! The paper's evaluation (§7) is built entirely on measurements taken
//! *outside* the server; this registry is the mirror-image — the server
//! measuring itself while it runs.  Three design points matter on the hot
//! path:
//!
//! * **Sharded counters** — [`Counter::add`] touches one cache-line-padded
//!   atomic picked by a per-thread shard index, so concurrent workers never
//!   contend on a counter line (the same false-sharing discipline the
//!   message rings use).
//! * **Sampled collectors** — subsystems that already keep their own
//!   lock-free counters (`ServerStats`, `BatchCounters`, `FrontendStats`)
//!   are *registered* as closures and read only at scrape time, so putting
//!   them on the metrics plane costs the hot path nothing.
//! * **Non-destructive snapshots** — [`MetricsRegistry::snapshot`] only
//!   loads; it never resets a source, so one scrape never steals samples
//!   from the next.
//!
//! Rendering follows the Prometheus text exposition format (version 0.0.4):
//! `# HELP` / `# TYPE` headers per family, `name{labels} value` samples,
//! and `_bucket`/`_sum`/`_count` expansion for histograms, so any scraper
//! (or [`parse_prometheus_text`]) can consume the output.

use cphash_sync::atomic::plain::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::histogram::LatencyHistogram;

/// Number of per-thread shards a [`Counter`] spreads its updates across
/// (power of two).
const SHARDS: usize = 16;

/// One cache-line-padded counter shard, so two shards never share a line.
#[repr(align(64))]
struct Shard(AtomicU64);

/// The per-thread shard index: the first time a thread touches a sharded
/// metric it claims the next slot round-robin, giving each worker thread a
/// stable private shard (threads beyond [`SHARDS`] wrap and share).
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    SLOT.with(|slot| {
        let mut idx = slot.get();
        if idx == usize::MAX {
            idx = NEXT.fetch_add(1, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
            slot.set(idx);
        }
        idx & (SHARDS - 1)
    })
}

/// A monotonically increasing counter handle; cloning shares the counter.
#[derive(Clone)]
pub struct Counter {
    shards: Arc<[Shard; SHARDS]>,
}

impl Counter {
    fn new() -> Counter {
        Counter {
            shards: Arc::new(std::array::from_fn(|_| Shard(AtomicU64::new(0)))),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` to the calling thread's shard (no cross-thread contention).
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed); // relaxed: monotonic diagnostic counter; guards no data
    }

    /// Current value: the sum over all shards.
    pub fn value(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed)) // relaxed: diagnostic snapshot; tearing across counters is fine
            .sum()
    }
}

impl core::fmt::Debug for Counter {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Counter({})", self.value())
    }
}

/// Where a registered metric's value comes from at snapshot time.
enum Source {
    Counter(Counter),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    GaugeFn(Box<dyn Fn() -> f64 + Send + Sync>),
    HistogramFn(Box<dyn Fn() -> LatencyHistogram + Send + Sync>),
}

/// One registered metric.
struct Registration {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    source: Source,
}

/// A named collection of metrics with snapshot and Prometheus rendering.
///
/// Registration order is preserved, except that a metric sharing a name
/// with one already registered (e.g. one histogram per `stage` label, or a
/// per-partition sample beside its total) joins the end of that family, so
/// the renderer emits one `# HELP`/`# TYPE` header per family.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<Vec<Registration>>,
}

impl core::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        write!(f, "MetricsRegistry({} metrics)", inner.len())
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], source: Source) {
        debug_assert!(valid_metric_name(name), "invalid metric name {name:?}");
        let mut inner = self.inner.lock().expect("metrics registry poisoned");
        let at = inner
            .iter()
            .rposition(|r| r.name == name)
            .map_or(inner.len(), |last| last + 1);
        inner.insert(
            at,
            Registration {
                name: name.to_string(),
                help: help.to_string(),
                labels: labels
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect(),
                source,
            },
        );
    }

    /// Register and return a new owned counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        let c = Counter::new();
        self.register(name, help, &[], Source::Counter(c.clone()));
        c
    }

    /// Register a counter sampled from an existing source at snapshot time.
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::CounterFn(Box::new(f)));
    }

    /// Register a gauge sampled from an existing source at snapshot time.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::GaugeFn(Box::new(f)));
    }

    /// Register a histogram sampled from an existing source at snapshot
    /// time (the closure must be non-destructive — use peek-style reads).
    pub fn histogram_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> LatencyHistogram + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::HistogramFn(Box::new(f)));
    }

    /// Take a typed, non-destructive snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            samples: inner
                .iter()
                .map(|r| MetricSample {
                    name: r.name.clone(),
                    help: r.help.clone(),
                    labels: r.labels.clone(),
                    value: match &r.source {
                        Source::Counter(c) => MetricValue::Counter(c.value()),
                        Source::CounterFn(f) => MetricValue::Counter(f()),
                        Source::GaugeFn(f) => MetricValue::Gauge(f()),
                        Source::HistogramFn(f) => {
                            MetricValue::Histogram(HistogramSnapshot::of(&f()))
                        }
                    },
                })
                .collect(),
        }
    }

    /// Snapshot and render in one step.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().to_prometheus_text()
    }
}

/// A point-in-time view of every metric in a [`MetricsRegistry`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// The samples, in registration order.
    pub samples: Vec<MetricSample>,
}

/// One metric's snapshot.
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric family name (e.g. `cphash_requests_total`).
    pub name: String,
    /// Human-readable description.
    pub help: String,
    /// Label key/value pairs.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: MetricValue,
}

/// The typed value of one sample.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// A monotone counter.
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(f64),
    /// A full histogram.
    Histogram(HistogramSnapshot),
}

/// A histogram flattened for export: cumulative bucket counts plus the
/// scalar summaries scrapers expect.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// `(upper_bound, cumulative_count)` per occupied bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u128,
}

impl HistogramSnapshot {
    /// Flatten a [`LatencyHistogram`].
    pub fn of(h: &LatencyHistogram) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cumulative = 0u64;
        for (upper, count) in h.nonzero_buckets() {
            cumulative += count;
            buckets.push((upper, cumulative));
        }
        HistogramSnapshot {
            buckets,
            count: h.count(),
            sum: h.sum(),
        }
    }
}

impl MetricsSnapshot {
    /// The first sample with the given family name.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Render in the Prometheus text exposition format (version 0.0.4).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::with_capacity(64 * self.samples.len());
        let mut previous: Option<&str> = None;
        for sample in &self.samples {
            if previous != Some(sample.name.as_str()) {
                let kind = match sample.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                out.push_str(&format!("# HELP {} {}\n", sample.name, sample.help));
                out.push_str(&format!("# TYPE {} {}\n", sample.name, kind));
                previous = Some(sample.name.as_str());
            }
            match &sample.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        v
                    ));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!(
                        "{}{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        v
                    ));
                }
                MetricValue::Histogram(h) => {
                    for (upper, cumulative) in &h.buckets {
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            sample.name,
                            render_labels(&sample.labels, Some(&upper.to_string())),
                            cumulative
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, Some("+Inf")),
                        h.count
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        h.sum
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        sample.name,
                        render_labels(&sample.labels, None),
                        h.count
                    ));
                }
            }
        }
        out
    }
}

/// Render a label set (optionally with an `le` bucket bound appended) as
/// `{k="v",...}`, or nothing when there are no labels.
fn render_labels(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if let Some(bound) = le {
        parts.push(format!("le=\"{bound}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// Is `name` a legal Prometheus metric name?
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// One sample line parsed back out of Prometheus text.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Sample name (histogram expansions keep their `_bucket`/`_sum`/
    /// `_count` suffix).
    pub name: String,
    /// The raw label block including braces (empty if unlabelled).
    pub labels: String,
    /// The sample value.
    pub value: f64,
}

/// Parse Prometheus text exposition back into samples — the scrape-side
/// inverse of [`MetricsSnapshot::to_prometheus_text`], used by the load
/// generator's timeline scraper and the observability smoke tests.
///
/// Returns an error naming the first malformed line.
pub fn parse_prometheus_text(text: &str) -> Result<Vec<ParsedSample>, String> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("no value separator in {line:?}"))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("bad sample value in {line:?}"))?;
        let (name, labels) = match head.find('{') {
            Some(brace) => {
                if !head.ends_with('}') {
                    return Err(format!("unterminated label block in {line:?}"));
                }
                (&head[..brace], head[brace..].to_string())
            }
            None => (head, String::new()),
        };
        if !valid_metric_name(name) {
            return Err(format!("invalid metric name in {line:?}"));
        }
        samples.push(ParsedSample {
            name: name.to_string(),
            labels,
            value,
        });
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_shard_and_sum() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("test_ops_total", "ops");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        counter.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        counter.add(5);
        assert_eq!(counter.value(), 40_005);
    }

    #[test]
    fn prometheus_rendering_and_parsing_round_trip() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("demo_requests_total", "requests served");
        c.add(42);
        registry.gauge_fn("demo_queue_depth", "depth", &[], || 7.0);
        registry.histogram_fn("demo_latency_ns", "latency", &[], || {
            let mut h = LatencyHistogram::new();
            h.record(900);
            h.record(5_000);
            h
        });
        registry.counter_fn(
            "demo_stage_total",
            "per stage",
            &[("stage", "execute")],
            || 3,
        );

        let text = registry.render_prometheus();
        assert!(text.contains("# TYPE demo_requests_total counter"));
        assert!(text.contains("demo_requests_total 42"));
        assert!(text.contains("demo_queue_depth 7"));
        assert!(text.contains("# TYPE demo_latency_ns histogram"));
        assert!(text.contains("demo_latency_ns_bucket{le=\"1024\"} 1"));
        assert!(text.contains("demo_latency_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("demo_latency_ns_sum 5900"));
        assert!(text.contains("demo_latency_ns_count 2"));
        assert!(text.contains("demo_stage_total{stage=\"execute\"} 3"));

        let parsed = parse_prometheus_text(&text).expect("rendered text parses");
        let requests = parsed
            .iter()
            .find(|s| s.name == "demo_requests_total")
            .unwrap();
        assert_eq!(requests.value, 42.0);
        let stage = parsed
            .iter()
            .find(|s| s.name == "demo_stage_total")
            .unwrap();
        assert_eq!(stage.labels, "{stage=\"execute\"}");
    }

    #[test]
    fn snapshot_is_typed_and_ordered() {
        let registry = MetricsRegistry::new();
        registry.counter("a_total", "a").add(1);
        registry.gauge_fn("b", "b", &[], || 2.0);
        // A late sample of family `a_total` joins it, ahead of `b`.
        registry.counter_fn("a_total", "a", &[("partition", "0")], || 1);
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a_total", "a_total", "b"]);
        assert!(matches!(
            snap.get("a_total").unwrap().value,
            MetricValue::Counter(1)
        ));
        assert!(matches!(snap.get("b").unwrap().value, MetricValue::Gauge(v) if v == 2.0));
        assert!(snap.get("missing").is_none());
        assert_eq!(
            snap.to_prometheus_text().matches("# TYPE a_total").count(),
            1
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_prometheus_text("good_metric 1\n").is_ok());
        assert!(parse_prometheus_text("novalue\n").is_err());
        assert!(parse_prometheus_text("name{unclosed 1\n").is_err());
        assert!(parse_prometheus_text("9starts_with_digit 1\n").is_err());
        assert!(parse_prometheus_text("bad value\n").is_err());
    }
}
