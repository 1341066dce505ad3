//! `ab` — run the repository's benchmark on a parent commit and on the
//! working tree in alternating pairs, and judge every metric by its pair
//! ratios (see the library docs for the rule).
//!
//! ```text
//! ab <parent-ref> [--pairs 10] [--workload W]... [--seconds 15]
//!    [--scratch DIR] [--out FILE]
//! ab trend
//! ```
//!
//! Under the scratch directory (default: `cphash-ab` in the system's
//! temporary directory) it clones the parent with `git clone --shared` and
//! freezes a copy of the working tree (tracked and untracked, not ignored),
//! so edits made while a campaign runs do not leak into it.  Each side is
//! built and run through its own, unchanged `bench/run.sh` with its own
//! `CARGO_TARGET_DIR` (kept between campaigns, so later builds are
//! incremental); pair `i`, counted from 1, runs both sides with seed `i`,
//! the parent first in odd pairs and the change first in even ones.  The
//! last stdout line of each run is the benchmark's JSON.  A Markdown table
//! per workload goes to stdout, and every run's raw result plus the
//! verdicts to `--out` (default `BENCH_ab.json` at the repository root),
//! with both commits and a host fingerprint (CPU, kernel, transparent huge
//! page modes, and the share of CPU time the hypervisor stole over the
//! campaign).  `/proc/stat` is also read around every run, and right
//! before it, in this process, a [`Calibration`] times a fixed ALU loop and
//! a pointer chase over 256 MiB (freed before the run starts): each run's
//! own steal share and calibration go into its JSON record, and a second
//! table per workload prints them pair by pair beside the pair's ratios of
//! the bounded metrics.  They explain a verdict and never decide one.
//! Progress goes to stderr, the runs' own stderr (the builds' included) to
//! `<scratch>/runs.log`.
//!
//! `ab trend` reads the repository root's `BENCH_pr<N>.json` campaigns in
//! PR order and chains each (workload, metric) median pair ratio, so that
//! a drift whose every step stayed inside its bound still shows: it prints
//! one table row per chained metric with a bound and fails when a chain
//! has passed it in the worse direction.  A second table prints each
//! campaign's throughput levels beside its median calibration.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use cphash_ab::{
    cell, judge, ledger_pr, level_row, levels, manifest_metrics, pair_header, pair_row,
    run_metrics, selected_mode, table_row, trend, Calibration, CpuTimes, Json, RunHost,
    LEVEL_HEADER, TABLE_HEADER,
};

#[derive(Debug)]
struct Args {
    parent_ref: String,
    pairs: usize,
    workloads: Vec<String>,
    seconds: u64,
    scratch: PathBuf,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: ab <parent-ref> [--pairs N] [--workload W]... [--seconds S] [--scratch DIR] [--out FILE]\n       ab trend";

fn parse_args(cli: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        parent_ref: String::new(),
        pairs: 10,
        workloads: Vec::new(),
        seconds: 15,
        scratch: std::env::temp_dir().join("cphash-ab"),
        out: None,
    };
    let mut iter = cli.into_iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--pairs" => {
                args.pairs = value("--pairs")?
                    .parse()
                    .map_err(|e| format!("bad --pairs: {e}"))?;
                if args.pairs == 0 {
                    return Err("--pairs must be at least 1".into());
                }
            }
            "--workload" => args.workloads.push(value("--workload")?),
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?
            }
            "--scratch" => args.scratch = PathBuf::from(value("--scratch")?),
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--help" | "-h" => return Err(USAGE.into()),
            other if other.starts_with("--") => return Err(format!("unknown flag: {other}")),
            other if args.parent_ref.is_empty() => args.parent_ref = other.to_string(),
            other => return Err(format!("unexpected argument: {other}")),
        }
    }
    if args.parent_ref.is_empty() {
        return Err(USAGE.into());
    }
    Ok(args)
}

/// Run `git` with `args` in `dir` and return its trimmed stdout.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("git: {e}"))?;
    if !out.status.success() {
        return Err(format!("git {} failed", args.join(" ")));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A fresh, empty `dir` (only ever one of the scratch directory's own
/// sub-directories).
fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Copy the working tree's tracked and untracked, non-ignored files.
fn freeze_working_tree(root: &Path, into: &Path) -> Result<usize, String> {
    fresh_dir(into)?;
    let listing = git(
        root,
        &[
            "ls-files",
            "-z",
            "--cached",
            "--others",
            "--exclude-standard",
        ],
    )?;
    let mut copied = 0;
    for name in listing.split('\0').filter(|n| !n.is_empty()) {
        let from = root.join(name);
        if !from.is_file() {
            continue; // deleted in the working tree
        }
        let to = into.join(name);
        if let Some(parent) = to.parent() {
            fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
        fs::copy(&from, &to).map_err(|e| format!("copying {name}: {e}"))?;
        copied += 1;
    }
    Ok(copied)
}

/// The whole-machine CPU counters now (`None` off Linux).
fn cpu_times() -> Option<CpuTimes> {
    CpuTimes::parse(&fs::read_to_string("/proc/stat").ok()?)
}

/// The selected mode of one transparent-huge-page setting.
fn thp_mode(setting: &str) -> Json {
    fs::read_to_string(format!("/sys/kernel/mm/transparent_hugepage/{setting}"))
        .ok()
        .and_then(|text| selected_mode(&text).map(str::to_string))
        .map_or(Json::Null, Json::Str)
}

/// CPU model, CPU count, kernel and transparent-huge-page modes of this
/// host, and the steal share between two CPU-counter readings.
fn host_fingerprint(steal_share: Option<f64>) -> Json {
    let cpu_model = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    obj([
        ("cpu_model", Json::Str(cpu_model)),
        ("cpus", Json::Num(cpus as f64)),
        ("kernel", Json::Str(kernel)),
        ("thp_enabled", thp_mode("enabled")),
        ("thp_defrag", thp_mode("defrag")),
        ("steal_share", steal_share.map_or(Json::Null, Json::Num)),
    ])
}

fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One side of the campaign.
struct Side {
    name: &'static str,
    dir: PathBuf,
    target: PathBuf,
}

impl Side {
    /// One untraced run; the parsed last stdout line.
    fn run(&self, workload: &str, seed: usize, seconds: u64, log: &File) -> Result<Json, String> {
        let out = Command::new("bash")
            .arg(self.dir.join("bench/run.sh"))
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .current_dir(&self.dir)
            .env("CARGO_TARGET_DIR", &self.target)
            .stderr(log.try_clone().map_err(|e| e.to_string())?)
            .output()
            .map_err(|e| format!("bench/run.sh: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().rev().find(|l| !l.trim().is_empty());
        match (out.status.success(), last) {
            (true, Some(line)) => Json::parse(line).map_err(|e| format!("{workload}: {e}")),
            _ => Err(format!(
                "{} run of {workload} (seed {seed}) failed: {}",
                self.name, out.status
            )),
        }
    }
}

/// The repository root and its parsed `BENCHMARK.json`.
fn repo_manifest() -> Result<(PathBuf, Json), String> {
    let root = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let text = fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    Ok((root, Json::parse(&text)?))
}

fn campaign(args: &Args) -> Result<(), String> {
    let (root, manifest) = repo_manifest()?;
    let specs = manifest_metrics(&manifest);
    let workloads: Vec<String> = if args.workloads.is_empty() {
        manifest
            .get("workloads")
            .map(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
            .collect()
    } else {
        args.workloads.clone()
    };

    let parent_commit = git(
        &root,
        &[
            "rev-parse",
            "--verify",
            &format!("{}^{{commit}}", args.parent_ref),
        ],
    )?;
    let change_commit = git(&root, &["rev-parse", "HEAD"])?;
    let dirty = !git(&root, &["status", "--porcelain"])?.is_empty();

    fs::create_dir_all(&args.scratch).map_err(|e| format!("{}: {e}", args.scratch.display()))?;
    let log = File::create(args.scratch.join("runs.log")).map_err(|e| e.to_string())?;
    let parent = Side {
        name: "parent",
        dir: args.scratch.join("parent"),
        target: args.scratch.join("target-parent"),
    };
    let change = Side {
        name: "change",
        dir: args.scratch.join("change"),
        target: args.scratch.join("target-change"),
    };
    fresh_dir(&parent.dir)?;
    let parent_dir = parent.dir.to_string_lossy().into_owned();
    let root_dir = root.to_string_lossy().into_owned();
    git(
        &root,
        &[
            "clone",
            "--quiet",
            "--shared",
            "--no-checkout",
            &root_dir,
            &parent_dir,
        ],
    )?;
    git(
        &parent.dir,
        &["checkout", "--quiet", "--detach", &parent_commit],
    )?;
    let files = freeze_working_tree(&root, &change.dir)?;
    eprintln!(
        "ab: parent {parent_commit} against the working tree at {change_commit}{} ({files} files)",
        if dirty { " plus edits" } else { "" }
    );

    let cpu_before = cpu_times();
    let mut report = BTreeMap::new();
    let mut any_worse = false;
    for workload in &workloads {
        let mut runs = Vec::new();
        let mut samples: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        // Per pair: which side ran first, and each side's CPU counters
        // around its own run and calibration before it.
        let mut pair_hosts = Vec::new();
        for pair in 0..args.pairs {
            let seed = pair + 1;
            let order = if pair % 2 == 0 {
                [&parent, &change]
            } else {
                [&change, &parent]
            };
            let mut results: BTreeMap<&str, Json> = BTreeMap::new();
            let mut hosts: BTreeMap<&str, RunHost> = BTreeMap::new();
            for (position, side) in order.into_iter().enumerate() {
                let calibration = Calibration::measure();
                let before = cpu_times();
                let result = side.run(workload, seed, args.seconds, &log)?;
                let counters = before.zip(cpu_times());
                let steal_share = counters.and_then(|(b, a)| b.steal_share(&a));
                let host = RunHost {
                    steal: counters,
                    calibration: Some(calibration),
                };
                hosts.insert(side.name, host);
                let throughput = run_metrics(&result)
                    .get("throughput_ops_s")
                    .copied()
                    .unwrap_or(f64::NAN);
                eprintln!(
                    "ab: {workload} pair {}/{} {}: {throughput:.0} ops/s",
                    pair + 1,
                    args.pairs,
                    side.name
                );
                runs.push(obj([
                    ("pair", Json::Num(pair as f64)),
                    ("side", Json::Str(side.name.into())),
                    ("position", Json::Num(position as f64)),
                    ("seed", Json::Num(seed as f64)),
                    ("steal_share", steal_share.map_or(Json::Null, Json::Num)),
                    (
                        "calibration",
                        obj([
                            ("alu_ns_per_iter", Json::Num(calibration.alu_ns)),
                            ("chase_ns_per_hop", Json::Num(calibration.chase_ns)),
                        ]),
                    ),
                    ("result", result.clone()),
                ]));
                results.insert(side.name, result);
            }
            pair_hosts.push((order[0].name, [hosts["parent"], hosts["change"]]));
            let (p, c) = (
                run_metrics(&results["parent"]),
                run_metrics(&results["change"]),
            );
            for (name, pv) in p {
                if let Some(&cv) = c.get(&name) {
                    samples.entry(name).or_default().push((pv, cv));
                }
            }
        }

        println!(
            "\n### `{workload}` ({} pairs, {} s)\n\n{TABLE_HEADER}",
            args.pairs, args.seconds
        );
        let mut verdicts = BTreeMap::new();
        // End-to-end metrics first, in the manifest's order of names.
        let mut names: Vec<&String> = samples.keys().collect();
        names.sort_by_key(|n| (specs.get(*n).is_none_or(|s| s.bound.is_none()), n.as_str()));
        for name in names {
            let Some(j) = judge(&samples[name], specs.get(name).copied()) else {
                continue;
            };
            println!("{}", table_row(name, &j));
            any_worse |= j.verdict == "worse";
            verdicts.insert(
                name.clone(),
                obj([
                    ("parent_median", Json::Num(j.parent.median)),
                    ("parent_q1", Json::Num(j.parent.q1)),
                    ("parent_q3", Json::Num(j.parent.q3)),
                    ("change_median", Json::Num(j.change.median)),
                    ("change_q1", Json::Num(j.change.q1)),
                    ("change_q3", Json::Num(j.change.q3)),
                    ("ahead", j.ahead.map_or(Json::Null, |k| Json::Num(k as f64))),
                    ("pairs", Json::Num(j.pairs as f64)),
                    ("median_ratio", Json::Num(j.median_ratio)),
                    ("bound", j.bound.map_or(Json::Null, Json::Num)),
                    ("verdict", Json::Str(j.verdict.into())),
                ]),
            );
        }
        let bounded: Vec<&str> = samples
            .keys()
            .filter(|n| specs.get(*n).is_some_and(|s| s.bound.is_some()))
            .map(String::as_str)
            .collect();
        println!("\n{}", pair_header(&bounded));
        for (pair, (first, hosts)) in pair_hosts.into_iter().enumerate() {
            let ratios: Vec<f64> = bounded
                .iter()
                .map(|n| samples[*n].get(pair).map_or(f64::NAN, |(p, c)| c / p))
                .collect();
            println!("{}", pair_row(pair + 1, first, hosts, &ratios));
        }
        report.insert(
            workload.clone(),
            obj([("runs", Json::Arr(runs)), ("verdicts", Json::Obj(verdicts))]),
        );
    }

    let steal_share = cpu_before
        .zip(cpu_times())
        .and_then(|(before, after)| before.steal_share(&after));
    let host = host_fingerprint(steal_share);
    let mode = |key| host.get(key).and_then(Json::as_str).unwrap_or("unknown");
    println!(
        "\nHost: steal {} of CPU time over the campaign; THP enabled `{}`, defrag `{}`.",
        steal_share.map_or("unknown".into(), |s| format!("{:.2} %", s * 100.0)),
        mode("thp_enabled"),
        mode("thp_defrag"),
    );
    let document = obj([
        ("tool", Json::Str("ab".into())),
        (
            "parent",
            obj([
                ("ref", Json::Str(args.parent_ref.clone())),
                ("commit", Json::Str(parent_commit)),
            ]),
        ),
        (
            "change",
            obj([
                ("commit", Json::Str(change_commit)),
                ("uncommitted_edits", Json::Bool(dirty)),
            ]),
        ),
        ("host", host),
        ("pairs", Json::Num(args.pairs as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("workloads", Json::Obj(report)),
    ]);
    let mut text = String::new();
    document.write(&mut text);
    text.push('\n');
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| root.join("BENCH_ab.json"));
    fs::write(&out, text).map_err(|e| format!("writing {}: {e}", out.display()))?;
    eprintln!("ab: wrote {}", out.display());
    if any_worse {
        Err("an end-to-end metric is worse than its bound".into())
    } else {
        Ok(())
    }
}

/// `ab trend`: chain the committed campaigns' median pair ratios.
fn print_trend() -> Result<(), String> {
    let (root, manifest) = repo_manifest()?;
    let specs = manifest_metrics(&manifest);
    let mut ledgers = Vec::new();
    for entry in fs::read_dir(&root).map_err(|e| format!("{}: {e}", root.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let Some(pr) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(ledger_pr)
        else {
            continue;
        };
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        ledgers.push((
            pr,
            Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        ));
    }
    let chains = trend(&ledgers, &specs);
    println!("| workload | metric | PRs | chained ratio | worst step | bound | verdict |\n|---|---|---|---|---|---|---|");
    let mut any_worse = false;
    for chain in &chains {
        let Some(bound) = chain.bound else {
            continue;
        };
        let prs: Vec<String> = chain.prs.iter().map(u32::to_string).collect();
        println!(
            "| `{}` | `{}` | {} | ×{:.3} | ×{} | {:.0} % | {} |",
            chain.workload,
            chain.metric,
            prs.join(", "),
            chain.ratio,
            cell(chain.worst_step),
            bound * 100.0,
            chain.verdict
        );
        any_worse |= chain.verdict == "worse";
    }
    println!("\n{LEVEL_HEADER}");
    for level in levels(&ledgers) {
        println!("{}", level_row(&level));
    }
    if any_worse {
        Err("a chained end-to-end metric has passed its bound".into())
    } else {
        Ok(())
    }
}

fn main() -> ExitCode {
    let cli: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if cli.first().map(String::as_str) == Some("trend") {
        print_trend()
    } else {
        match parse_args(cli) {
            Ok(args) => campaign(&args),
            Err(message) => {
                eprintln!("{message}");
                return ExitCode::from(2);
            }
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ab: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        parse_args(flags.iter().map(|f| f.to_string()))
    }

    #[test]
    fn flags_parse_and_a_parent_ref_is_required() {
        let args = parse(&[
            "HEAD~1",
            "--pairs",
            "4",
            "--workload",
            "a",
            "--workload",
            "b",
        ])
        .unwrap();
        assert_eq!((args.parent_ref.as_str(), args.pairs), ("HEAD~1", 4));
        assert_eq!(args.workloads, ["a", "b"]);
        assert_eq!(args.seconds, 15);
        assert!(parse(&["--pairs", "4"]).is_err());
        assert!(parse(&["HEAD", "--pairs", "0"]).is_err());
        assert!(parse(&["HEAD", "--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["HEAD", "extra"]).is_err());
    }
}
