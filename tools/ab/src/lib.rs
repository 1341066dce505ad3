//! The pure half of `ab`: a minimal JSON reader and writer, order
//! statistics, and the verdict rule the benchmark's acceptance applies to a
//! parent / change campaign (see `main.rs` for the half that runs things).
//!
//! The rule, per metric and workload, over `n` alternating pairs:
//! - each pair gives the ratio change / parent;
//! - "change ahead k / n" counts the pairs in which the change is better;
//! - an end-to-end metric is **worse** when the median pair ratio is worse
//!   than its `BENCHMARK.json` bound allows, and **unresolved** when the
//!   parent's own quartile spread (interquartile range over median) is
//!   wider than the bound, so that no ratio inside it could be told apart;
//! - one that would be `ok` is a **gain** when the change is ahead in at
//!   least ⌈0.9·n⌉ pairs and its median beats the parent's, in the better
//!   direction, by more than that spread: the bar a claimed improvement
//!   has to clear.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parse one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// Compact serialization; non-finite numbers become `null`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&byte) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", byte as char, self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'{') => {
                self.at += 1;
                let mut members = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    members.insert(key, self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("bad object at offset {}", self.at)),
                    }
                }
            }
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.at) == Some(&b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.at) {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at offset {}", self.at)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE".contains(b) || b.is_ascii_digit())
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).unwrap_or("");
                text.parse()
                    .map(Json::Num)
                    .map_err(|_| format!("bad number at offset {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.at))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.at) != Some(&b'"') {
            return Err(format!("expected a string at offset {}", self.at));
        }
        self.at += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.at) else {
                return Err("unterminated string".into());
            };
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&escaped) = self.bytes.get(self.at) else {
                        return Err("unterminated escape".into());
                    };
                    self.at += 1;
                    match escaped {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad \\u escape")?;
                            self.at += 4;
                            let c = char::from_u32(hex).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// A metric the manifest declares: its direction, and a bound for the
/// end-to-end ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub better: Better,
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` declares, by name.
pub fn manifest_metrics(manifest: &Json) -> BTreeMap<String, MetricSpec> {
    let mut specs = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        for entry in manifest.get(list).map(Json::as_array).unwrap_or(&[]) {
            let (Some(name), Some(better)) = (
                entry.get("name").and_then(Json::as_str),
                entry.get("better").and_then(Json::as_str),
            ) else {
                continue;
            };
            let better = if better == "higher" {
                Better::Higher
            } else {
                Better::Lower
            };
            let bound = entry.get("bound").and_then(Json::as_f64);
            specs.insert(name.to_string(), MetricSpec { better, bound });
        }
    }
    specs
}

/// The metrics of one run's result line (`{"correct", "attempted",
/// "failed", "metrics": {name: {"unit", "value"}}}`; a bare number is read
/// as the value too), with `failed_ops_ratio` derived from the counts when
/// the run does not print it.
pub fn run_metrics(result: &Json) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(metrics)) = result.get("metrics") {
        for (name, metric) in metrics {
            let value = metric.as_f64().or_else(|| metric.get("value")?.as_f64());
            if let Some(value) = value {
                out.insert(name.clone(), value);
            }
        }
    }
    let count = |key| result.get(key).and_then(Json::as_f64);
    if let (Some(attempted), Some(failed)) = (count("attempted"), count("failed")) {
        out.entry("failed_ops_ratio".into())
            .or_insert(if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            });
    }
    out
}

/// Median and quartiles (linear interpolation between order statistics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    /// `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Quartiles> {
        let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Some(Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        })
    }

    /// Interquartile range over the median (0 when the median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// What a campaign says about one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub parent: Quartiles,
    pub change: Quartiles,
    /// Pairs in which the change is better (`None` without a direction).
    pub ahead: Option<usize>,
    pub pairs: usize,
    /// Median of change / parent over the pairs.
    pub median_ratio: f64,
    pub bound: Option<f64>,
    /// `gain`, `ok`, `worse`, `unresolved`, or `-` for a metric without a
    /// bound.
    pub verdict: &'static str,
}

/// Judge one metric from its paired samples `(parent, change)`.
pub fn judge(pairs: &[(f64, f64)], spec: Option<MetricSpec>) -> Option<Judgement> {
    let parents: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let changes: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let ratios: Vec<f64> = pairs
        .iter()
        .filter_map(|&(p, c)| {
            if p == 0.0 {
                (c == 0.0).then_some(1.0)
            } else {
                Some(c / p)
            }
        })
        .collect();
    let parent = Quartiles::of(&parents)?;
    let change = Quartiles::of(&changes)?;
    let median_ratio = Quartiles::of(&ratios).map_or(f64::NAN, |q| q.median);
    let ahead = spec.map(|s| {
        pairs
            .iter()
            .filter(|&&(p, c)| match s.better {
                Better::Higher => c > p,
                Better::Lower => c < p,
            })
            .count()
    });
    let bound = spec.and_then(|s| s.bound);
    let verdict = match (spec, bound, ahead) {
        (Some(spec), Some(bound), Some(ahead)) => {
            let better_by = if parent.median == 0.0 {
                0.0
            } else {
                -worse_by(spec.better, change.median / parent.median)
            };
            if parent.spread() > bound {
                "unresolved"
            } else if worse_by(spec.better, median_ratio) > bound || median_ratio.is_nan() {
                "worse"
            } else if ahead * 10 >= pairs.len() * 9 && better_by > parent.spread() {
                "gain"
            } else {
                "ok"
            }
        }
        _ => "-",
    };
    Some(Judgement {
        parent,
        change,
        ahead,
        pairs: pairs.len(),
        median_ratio,
        bound,
        verdict,
    })
}

/// A number in a table cell: three significant digits, or an integer.
pub fn cell(v: f64) -> String {
    let a = v.abs();
    if a >= 1000.0 || (v == v.trunc() && a < 1e15) {
        format!("{:.0}", v)
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 0.1 {
        format!("{v:.3}")
    } else {
        format!("{v:.3e}")
    }
}

/// One Markdown table row for a judged metric.
pub fn table_row(metric: &str, j: &Judgement) -> String {
    let quartiles = |q: &Quartiles| format!("{} [{}–{}]", cell(q.median), cell(q.q1), cell(q.q3));
    format!(
        "| `{metric}` | {} | {} | {} | ×{:.3} | {} | {} |",
        quartiles(&j.parent),
        quartiles(&j.change),
        j.ahead
            .map_or("?".to_string(), |k| format!("{k} / {}", j.pairs)),
        j.median_ratio,
        j.bound
            .map_or("-".to_string(), |b| format!("{:.0} %", b * 100.0)),
        j.verdict
    )
}

/// The header of [`table_row`]'s table.
pub const TABLE_HEADER: &str = "| metric | parent median [q1–q3] | change median [q1–q3] | change ahead | median pair ratio | bound | verdict |\n|---|---|---|---|---|---|---|";

/// The whole-machine CPU counters of `/proc/stat`'s first line, in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTimes {
    /// user + nice + system + idle + iowait + irq + softirq + steal (guest
    /// time is already inside user and nice).
    pub total: u64,
    /// Time the hypervisor ran something else while this host wanted a CPU.
    pub steal: u64,
}

impl CpuTimes {
    /// Parse the `cpu` line of `/proc/stat`'s text.
    pub fn parse(stat: &str) -> Option<CpuTimes> {
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        (fields.len() == 8).then(|| CpuTimes {
            total: fields.iter().sum(),
            steal: fields[7],
        })
    }

    /// Share of the ticks between `self` and the later `after` that were
    /// stolen (`None` when no tick passed).
    pub fn steal_share(&self, after: &CpuTimes) -> Option<f64> {
        let total = after.total.checked_sub(self.total)?;
        let steal = after.steal.checked_sub(self.steal)?;
        (total > 0).then(|| steal as f64 / total as f64)
    }
}

/// What one run's host did around it: the CPU counters before and after
/// the run, and the calibration timed right before it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunHost {
    pub steal: Option<(CpuTimes, CpuTimes)>,
    pub calibration: Option<Calibration>,
}

/// The header of [`pair_row`]'s table, with one ratio column per metric.
pub fn pair_header(metrics: &[&str]) -> String {
    let names: String = metrics.iter().map(|m| format!(" `{m}` ratio |")).collect();
    let rules: String = metrics.iter().map(|_| "---|").collect();
    format!(
        "| pair | first | parent steal | change steal | parent ALU / chase ns | change ALU / chase ns |{names}\n|---|---|---|---|---|---|{rules}"
    )
}

/// One row of the per-pair table: the pair (counted from 1), the side that
/// ran first, the steal share over each side's own run and each side's
/// calibration (`?` when unknown), then the pair's change / parent ratio
/// of each metric.  Steal and calibration explain a ratio; they never
/// decide a verdict.
pub fn pair_row(pair: usize, first: &str, hosts: [RunHost; 2], ratios: &[f64]) -> String {
    let [parent, change] = hosts.map(|host| {
        host.steal
            .and_then(|(before, after)| before.steal_share(&after))
            .map_or("?".to_string(), |s| format!("{:.1} %", s * 100.0))
    });
    let [parent_cal, change_cal] = hosts.map(|host| {
        host.calibration.map_or("?".to_string(), |c| {
            format!("{:.2} / {:.1}", c.alu_ns, c.chase_ns)
        })
    });
    let ratios: String = ratios.iter().map(|r| format!(" ×{r:.3} |")).collect();
    format!("| {pair} | {first} | {parent} | {change} | {parent_cal} | {change_cal} |{ratios}")
}

/// How fast this host computes and reaches memory just now: `alu_ns` per
/// iteration of a fixed dependent multiply-rotate loop, `chase_ns` per hop
/// of a pointer chase through one cycle over [`CHASE_BYTES`].  Taken before
/// each run, so that a level shift between campaigns reads as "compute ×a,
/// memory ×b".  It explains a verdict and never decides one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    pub alu_ns: f64,
    pub chase_ns: f64,
}

/// The memory the pointer chase runs over: far past any cache.
pub const CHASE_BYTES: usize = 256 << 20;

const ALU_ITERATIONS: u64 = 50_000_000;
const CHASE_HOPS: usize = 2_000_000;
const LINE: usize = 64;

/// Sattolo's shuffle: a random permutation of `0..n` that is one cycle, so
/// following `next[i]` from any slot visits every slot before it returns.
pub fn single_cycle(n: usize, seed: u64) -> Vec<u32> {
    assert!(n <= u32::MAX as usize, "slot indices are 32-bit");
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        next.swap(i, (state % i as u64) as usize);
    }
    next
}

impl Calibration {
    /// Time both loops; the chase's memory is freed before this returns.
    pub fn measure() -> Calibration {
        let start = std::time::Instant::now();
        let mut x = std::hint::black_box(1u64);
        for _ in 0..ALU_ITERATIONS {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0x5555;
        }
        std::hint::black_box(x);
        let alu_ns = start.elapsed().as_nanos() as f64 / ALU_ITERATIONS as f64;
        // One hop per cache line: each line's first word names the next.
        let words_per_line = LINE / 8;
        let mut memory = vec![0u64; CHASE_BYTES / 8];
        let cycle = single_cycle(CHASE_BYTES / LINE, 0x2545_F491_4F6C_DD1D);
        for (line, &to) in cycle.iter().enumerate() {
            memory[line * words_per_line] = u64::from(to);
        }
        drop(cycle);
        let start = std::time::Instant::now();
        let mut at = 0usize;
        for _ in 0..CHASE_HOPS {
            at = memory[at * words_per_line] as usize;
        }
        std::hint::black_box(at);
        let chase_ns = start.elapsed().as_nanos() as f64 / CHASE_HOPS as f64;
        Calibration { alu_ns, chase_ns }
    }
}

/// The selected mode of a sysfs multiple-choice file such as
/// `transparent_hugepage/enabled` (`always [madvise] never` → `madvise`).
pub fn selected_mode(text: &str) -> Option<&str> {
    let start = text.find('[')? + 1;
    let len = text[start..].find(']')?;
    Some(&text[start..start + len])
}

/// The PR number of a ledger file name, `BENCH_pr<N>.json`.
pub fn ledger_pr(file_name: &str) -> Option<u32> {
    file_name
        .strip_prefix("BENCH_pr")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// One (workload, metric) chained across campaigns.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain {
    pub workload: String,
    pub metric: String,
    /// The PRs whose campaigns judged this metric, in order.
    pub prs: Vec<u32>,
    /// The product of their median pair ratios.
    pub ratio: f64,
    /// The worst single step's ratio.
    pub worst_step: f64,
    pub bound: Option<f64>,
    /// `worse` when the chained ratio passes the bound in the worse
    /// direction (whether or not any one step did), `ok` inside it, `-`
    /// without a bound.
    pub verdict: &'static str,
}

/// How far `ratio` (change / parent) is on the worse side of 1.
fn worse_by(better: Better, ratio: f64) -> f64 {
    match better {
        Better::Higher => 1.0 - ratio,
        Better::Lower => ratio - 1.0,
    }
}

/// Chain every (workload, metric) `median_ratio` of the campaigns `ledgers`
/// (`(PR number, the campaign's JSON)`, in any order) in PR order, and
/// judge each product against the metric's bound: a run of steps each
/// inside the bound can still add up to one past it.
pub fn trend(ledgers: &[(u32, Json)], specs: &BTreeMap<String, MetricSpec>) -> Vec<Chain> {
    let mut ordered: Vec<&(u32, Json)> = ledgers.iter().collect();
    ordered.sort_by_key(|(pr, _)| *pr);
    let mut chains: BTreeMap<(String, String), Chain> = BTreeMap::new();
    for (pr, ledger) in ordered {
        let Some(Json::Obj(workloads)) = ledger.get("workloads") else {
            continue;
        };
        for (workload, report) in workloads {
            let Some(Json::Obj(verdicts)) = report.get("verdicts") else {
                continue;
            };
            for (metric, verdict) in verdicts {
                let Some(step) = verdict.get("median_ratio").and_then(Json::as_f64) else {
                    continue;
                };
                let better = specs.get(metric).map_or(Better::Higher, |s| s.better);
                let chain = chains
                    .entry((workload.clone(), metric.clone()))
                    .or_insert_with(|| Chain {
                        workload: workload.clone(),
                        metric: metric.clone(),
                        prs: Vec::new(),
                        ratio: 1.0,
                        worst_step: step,
                        bound: specs.get(metric).and_then(|s| s.bound),
                        verdict: "-",
                    });
                chain.prs.push(*pr);
                chain.ratio *= step;
                if worse_by(better, step) > worse_by(better, chain.worst_step) {
                    chain.worst_step = step;
                }
            }
        }
    }
    chains
        .into_values()
        .map(|mut chain| {
            if let (Some(spec), Some(bound)) = (specs.get(&chain.metric), chain.bound) {
                chain.verdict = if worse_by(spec.better, chain.ratio) > bound {
                    "worse"
                } else {
                    "ok"
                };
            }
            chain
        })
        .collect()
}

/// One campaign's levels on one workload, beside the host's calibration:
/// the parent's and the change's median throughput and the median over
/// the campaign's runs of each calibration (`None` for a campaign that did
/// not record it).
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    pub pr: u32,
    pub workload: String,
    pub parent: Option<f64>,
    pub change: Option<f64>,
    pub alu_ns: Option<f64>,
    pub chase_ns: Option<f64>,
}

/// Every campaign's [`Level`]s, in PR order.
pub fn levels(ledgers: &[(u32, Json)]) -> Vec<Level> {
    let mut ordered: Vec<&(u32, Json)> = ledgers.iter().collect();
    ordered.sort_by_key(|(pr, _)| *pr);
    let mut out = Vec::new();
    for (pr, ledger) in ordered {
        let Some(Json::Obj(workloads)) = ledger.get("workloads") else {
            continue;
        };
        for (workload, report) in workloads {
            let throughput = report
                .get("verdicts")
                .and_then(|v| v.get("throughput_ops_s"));
            let median = |side: &str| throughput.and_then(|t| t.get(side)).and_then(Json::as_f64);
            let runs = report.get("runs").map(Json::as_array).unwrap_or(&[]);
            let calibrated = |key: &str| {
                let samples: Vec<f64> = runs
                    .iter()
                    .filter_map(|run| run.get("calibration")?.get(key)?.as_f64())
                    .collect();
                Quartiles::of(&samples).map(|q| q.median)
            };
            out.push(Level {
                pr: *pr,
                workload: workload.clone(),
                parent: median("parent_median"),
                change: median("change_median"),
                alu_ns: calibrated("alu_ns_per_iter"),
                chase_ns: calibrated("chase_ns_per_hop"),
            });
        }
    }
    out
}

/// One row of `trend`'s levels table (`–` for what a campaign lacks).
pub fn level_row(level: &Level) -> String {
    let num =
        |v: Option<f64>, digits: usize| v.map_or("–".to_string(), |v| format!("{v:.digits$}"));
    format!(
        "| {} | `{}` | {} | {} | {} | {} |",
        level.pr,
        level.workload,
        level.parent.map_or("–".to_string(), cell),
        level.change.map_or("–".to_string(), cell),
        num(level.alu_ns, 2),
        num(level.chase_ns, 1),
    )
}

/// The header of [`level_row`]'s table.
pub const LEVEL_HEADER: &str = "| PR | workload | parent throughput | change throughput | ALU ns / iter | chase ns / hop |\n|---|---|---|---|---|---|";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_what_the_benchmark_prints() {
        let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"throughput_ops_s":1.5e6,"latency_p99_us":12.25,"name":"a\"b\\c"}}"#;
        let parsed = Json::parse(line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(
            metrics.get("throughput_ops_s").and_then(Json::as_f64),
            Some(1.5e6)
        );
        assert_eq!(metrics.get("name").and_then(Json::as_str), Some("a\"b\\c"));
        let mut out = String::new();
        parsed.write(&mut out);
        assert_eq!(Json::parse(&out).unwrap(), parsed);
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("[1,").is_err());
        assert_eq!(
            Json::parse(" [ ] ").unwrap(),
            Json::Arr(Vec::new()),
            "empty containers"
        );
    }

    #[test]
    fn a_run_line_gives_its_metric_values_and_failure_share() {
        let line = r#"{"correct":true,"attempted":200,"failed":2,"metrics":{"throughput_ops_s":{"unit":"1/s","value":5.5e6},"setup_s":0.25}}"#;
        let metrics = run_metrics(&Json::parse(line).unwrap());
        assert_eq!(metrics["throughput_ops_s"], 5.5e6);
        assert_eq!(metrics["setup_s"], 0.25);
        assert_eq!(metrics["failed_ops_ratio"], 0.01);
    }

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.0, 3.0, 4.0));
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.75, 2.5, 3.25));
        assert!((q.spread() - 0.6).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[]), None);
    }

    fn spec(better: Better, bound: f64) -> Option<MetricSpec> {
        Some(MetricSpec {
            better,
            bound: Some(bound),
        })
    }

    #[test]
    fn the_verdict_follows_the_pair_ratio_and_the_parents_spread() {
        // A tight parent, a change 10 % slower: inside a 25 % bound.
        let pairs: Vec<(f64, f64)> = (0..10)
            .map(|i| (100.0 + i as f64, 90.0 + i as f64))
            .collect();
        let j = judge(&pairs, spec(Better::Higher, 0.25)).unwrap();
        assert_eq!((j.verdict, j.ahead), ("ok", Some(0)));
        assert!((j.median_ratio - 0.9).abs() < 0.01);
        // The same numbers judged as a lower-is-better metric lead 10 / 10,
        // by more than the parent's 4 % spread.
        let j = judge(&pairs, spec(Better::Lower, 0.25)).unwrap();
        assert_eq!((j.verdict, j.ahead), ("gain", Some(10)));
        // 40 % slower is worse than the bound.
        let slow: Vec<(f64, f64)> = pairs.iter().map(|&(p, _)| (p, p * 0.6)).collect();
        assert_eq!(
            judge(&slow, spec(Better::Higher, 0.25)).unwrap().verdict,
            "worse"
        );
        // A parent whose quartiles spread past the bound decides nothing.
        let noisy: Vec<(f64, f64)> = [50.0, 100.0, 150.0, 200.0]
            .iter()
            .map(|&p| (p, p))
            .collect();
        assert_eq!(
            judge(&noisy, spec(Better::Higher, 0.25)).unwrap().verdict,
            "unresolved"
        );
        // Zero on both sides is a ratio of one; no bound, no verdict.
        let zeros = [(0.0, 0.0); 4];
        let j = judge(
            &zeros,
            Some(MetricSpec {
                better: Better::Lower,
                bound: None,
            }),
        )
        .unwrap();
        assert_eq!((j.median_ratio, j.verdict), (1.0, "-"));
    }

    #[test]
    fn a_gain_needs_nine_pairs_in_ten_and_a_median_past_the_parents_spread() {
        // Parent quartiles 99.25–101.75 around 100.5: a 2.5 % spread.
        let parents: Vec<f64> = (0..10).map(|i| 96.0 + i as f64).collect();
        let campaign = |change: &dyn Fn(usize, f64) -> f64| -> Vec<(f64, f64)> {
            parents
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, change(i, p)))
                .collect()
        };
        let verdict = |pairs: &[(f64, f64)], better| judge(pairs, spec(better, 0.25)).unwrap();
        // 10 / 10 ahead by 10 %, far past the spread.
        let clear = campaign(&|_, p| p * 1.10);
        let j = verdict(&clear, Better::Higher);
        assert_eq!((j.verdict, j.ahead), ("gain", Some(10)));
        // The same, for a lower-is-better metric.
        let lower = campaign(&|_, p| p * 0.90);
        assert_eq!(verdict(&lower, Better::Lower).verdict, "gain");
        // 8 / 10 ahead is not enough, however far the median moved.
        let eight = campaign(&|i, p| if i < 2 { p * 0.99 } else { p * 1.10 });
        let j = verdict(&eight, Better::Higher);
        assert_eq!((j.verdict, j.ahead), ("ok", Some(8)));
        // 10 / 10 ahead by 1 %, inside the parent's 2.5 % spread.
        let inside = campaign(&|_, p| p * 1.01);
        let j = verdict(&inside, Better::Higher);
        assert_eq!((j.verdict, j.ahead), ("ok", Some(10)));
    }

    #[test]
    fn the_manifest_gives_directions_and_bounds() {
        let manifest = Json::parse(
            r#"{"end_to_end":[{"name":"throughput_ops_s","better":"higher","bound":0.25}],
                "per_layer":[{"name":"latency_p99_us","better":"lower"}]}"#,
        )
        .unwrap();
        let specs = manifest_metrics(&manifest);
        assert_eq!(
            specs["throughput_ops_s"],
            MetricSpec {
                better: Better::Higher,
                bound: Some(0.25)
            }
        );
        assert_eq!(specs["latency_p99_us"].bound, None);
    }

    #[test]
    fn each_pair_shows_the_steal_and_calibration_of_its_own_two_runs() {
        let at = |total, steal| CpuTimes { total, steal };
        // The parent's run lost 50 of 1 000 ticks, the change's 0 of 400.
        let parent = RunHost {
            steal: Some((at(10_000, 300), at(11_000, 350))),
            calibration: Some(Calibration {
                alu_ns: 2.384,
                chase_ns: 96.25,
            }),
        };
        let change = RunHost {
            steal: Some((at(11_000, 350), at(11_400, 350))),
            calibration: Some(Calibration {
                alu_ns: 2.5,
                chase_ns: 120.0,
            }),
        };
        assert_eq!(
            pair_row(3, "parent", [parent, change], &[0.9871, 1.25]),
            "| 3 | parent | 5.0 % | 0.0 % | 2.38 / 96.2 | 2.50 / 120.0 | ×0.987 | ×1.250 |"
        );
        // No tick passed, or no reading: unknown, not zero.
        let still = RunHost {
            steal: Some((at(5, 1), at(5, 1))),
            calibration: None,
        };
        assert_eq!(
            pair_row(4, "change", [still, RunHost::default()], &[1.0]),
            "| 4 | change | ? | ? | ? | ? | ×1.000 |"
        );
        assert_eq!(
            pair_header(&["a", "b"]),
            "| pair | first | parent steal | change steal | parent ALU / chase ns | change ALU / chase ns | `a` ratio | `b` ratio |\n|---|---|---|---|---|---|---|---|"
        );
    }

    #[test]
    fn sattolos_shuffle_is_one_cycle_over_every_slot() {
        for (n, seed) in [(1, 1), (2, 7), (1_000, 3), (65_536, 0x2545_F491_4F6C_DD1D)] {
            let next = single_cycle(n, seed);
            let mut seen = vec![false; n];
            let mut at = 0;
            for _ in 0..n {
                assert!(!seen[at], "n {n}: slot {at} visited twice");
                seen[at] = true;
                at = next[at] as usize;
            }
            assert_eq!(at, 0, "n {n}: the walk closes after every slot");
            assert!(seen.iter().all(|&s| s));
        }
        // A shuffle, not the rotation it starts from.
        let next = single_cycle(1_000, 3);
        assert!(
            (0..1_000)
                .filter(|&i| next[i] as usize == (i + 1) % 1_000)
                .count()
                < 10
        );
    }

    #[test]
    fn trend_levels_show_the_calibration_where_a_campaign_recorded_it() {
        let run = |alu: f64, chase: f64| {
            Json::parse(&format!(
                r#"{{"calibration":{{"alu_ns_per_iter":{alu},"chase_ns_per_hop":{chase}}}}}"#
            ))
            .unwrap()
        };
        let calibrated = Json::parse(
            r#"{"workloads":{"w":{"verdicts":{"throughput_ops_s":{"parent_median":1000000,"change_median":1100000}}}}}"#,
        )
        .unwrap();
        let Json::Obj(mut doc) = calibrated else {
            unreachable!()
        };
        let Some(Json::Obj(workloads)) = doc.get_mut("workloads") else {
            unreachable!()
        };
        let Some(Json::Obj(report)) = workloads.get_mut("w") else {
            unreachable!()
        };
        report.insert(
            "runs".into(),
            Json::Arr(vec![run(2.0, 90.0), run(3.0, 110.0), run(2.5, 100.0)]),
        );
        let older = ledger(&[("throughput_ops_s", 0.9)]);
        let levels = levels(&[(49, Json::Obj(doc)), (48, older)]);
        assert_eq!(levels.len(), 2);
        assert_eq!(
            level_row(&levels[0]),
            "| 48 | `w` | – | – | – | – |",
            "a campaign without the fields still prints"
        );
        assert_eq!(levels[1].alu_ns, Some(2.5));
        assert_eq!(
            level_row(&levels[1]),
            "| 49 | `w` | 1000000 | 1100000 | 2.50 | 100.0 |"
        );
    }

    #[test]
    fn the_host_fingerprint_reads_steal_and_the_thp_mode() {
        let before =
            CpuTimes::parse("cpu  100 0 50 800 10 0 5 35 0 0\ncpu0 50 0 25 400 5 0 2 18 0 0\n")
                .unwrap();
        assert_eq!(
            before,
            CpuTimes {
                total: 1000,
                steal: 35
            }
        );
        let after = CpuTimes::parse("cpu  200 0 100 1550 10 0 5 135 0 0\n").unwrap();
        assert_eq!(before.steal_share(&after), Some(0.1));
        assert_eq!(after.steal_share(&after), None, "no tick passed");
        assert_eq!(CpuTimes::parse("cpu  1 2 3\n"), None);
        assert_eq!(selected_mode("always [madvise] never\n"), Some("madvise"));
        assert_eq!(
            selected_mode("always defer defer+madvise [madvise] never"),
            Some("madvise")
        );
        assert_eq!(selected_mode("never"), None);
    }

    /// A campaign file with one workload whose metrics have these median
    /// pair ratios.
    fn ledger(ratios: &[(&str, f64)]) -> Json {
        let verdicts = ratios
            .iter()
            .map(|&(metric, ratio)| {
                let mut verdict = BTreeMap::new();
                verdict.insert("median_ratio".to_string(), Json::Num(ratio));
                (metric.to_string(), Json::Obj(verdict))
            })
            .collect();
        let mut report = BTreeMap::new();
        report.insert("verdicts".to_string(), Json::Obj(verdicts));
        let mut workloads = BTreeMap::new();
        workloads.insert("w".to_string(), Json::Obj(report));
        let mut doc = BTreeMap::new();
        doc.insert("workloads".to_string(), Json::Obj(workloads));
        Json::Obj(doc)
    }

    #[test]
    fn a_trend_flags_a_chain_past_its_bound_though_no_step_was() {
        let specs = manifest_metrics(
            &Json::parse(
                r#"{"end_to_end":[{"name":"throughput_ops_s","better":"higher","bound":0.25},
                                  {"name":"mem_bytes_per_key","better":"lower","bound":0.1}]}"#,
            )
            .unwrap(),
        );
        assert_eq!(ledger_pr("BENCH_pr39.json"), Some(39));
        assert_eq!(ledger_pr("BENCH_ab.json"), None);
        // Throughput falls 15 % twice: each step inside 25 %, the chain
        // (×0.7225) past it.  Memory rises 4 % and falls 7 %: inside.
        let ledgers = [
            (
                40,
                ledger(&[("throughput_ops_s", 0.85), ("mem_bytes_per_key", 0.93)]),
            ),
            (
                39,
                ledger(&[("throughput_ops_s", 0.85), ("mem_bytes_per_key", 1.04)]),
            ),
        ];
        let chains = trend(&ledgers, &specs);
        let find = |metric: &str| chains.iter().find(|c| c.metric == metric).unwrap();
        let throughput = find("throughput_ops_s");
        assert_eq!(throughput.prs, [39, 40]);
        assert!((throughput.ratio - 0.7225).abs() < 1e-12);
        assert_eq!((throughput.worst_step, throughput.verdict), (0.85, "worse"));
        let memory = find("mem_bytes_per_key");
        assert!((memory.ratio - 0.9672).abs() < 1e-12);
        assert_eq!((memory.worst_step, memory.verdict), (1.04, "ok"));
    }
}
