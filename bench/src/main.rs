//! `cphash-benchmark`: the repository's benchmark.  See `README.md`.
//!
//! * `run --workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; prints every metric by name and unit, then (last line) the
//!   JSON object the acceptance driver reads.
//! * `suite` — every workload, untraced then traced, each in a child
//!   process of this binary; writes one JSON document.
//! * `compare A.json B.json` — per (metric, workload) verdicts.
//! * `selfcheck` — the suite twice on the same build; fails if the two
//!   disagree by more than the benchmark's own bounds.

mod alloc_count;
mod compare;
mod engine;
mod gen;
mod host;
mod json;
mod run;
mod rungs;
mod span;
mod spec;
mod stats;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use spec::{workload, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAllocator = alloc_count::CountingAllocator;

/// Parsed `--flag value` arguments plus positionals.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    flags.push((name.to_string(), value.clone()));
                }
                None => positional.push(arg.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("--{name}: cannot parse {v:?}"))
            })
            .transpose()
    }

    fn out_dir(&self) -> PathBuf {
        PathBuf::from(self.get("out-dir").unwrap_or("bench/out"))
    }

    fn workloads(&self) -> Result<Vec<&'static Workload>, String> {
        match self.get("workload") {
            None | Some("all") => Ok(WORKLOADS.iter().collect()),
            Some(name) => workload(name).map(|w| vec![w]).ok_or_else(|| {
                let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; known: {}", known.join(", "))
            }),
        }
    }
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::object(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
        )
    }))
}

/// `run`: one workload, one mode, in this process.
fn cmd_run(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("run needs --workload")?;
    let w = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let seconds = args
        .number::<f64>("seconds")?
        .unwrap_or(w.default_seconds as f64);
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=600"));
    }
    let cfg = run::RunConfig {
        workload: w,
        seed: args.number("seed")?.unwrap_or(1),
        seconds,
        traced,
        out_dir: args.out_dir(),
        // `run.sh` passes the commit; the acceptance checkout has none.
        commit: args
            .get("commit")
            .filter(|c| !c.is_empty())
            .unwrap_or("unknown")
            .to_string(),
    };
    let (result, mut doc) = run::run(&cfg)?;

    println!(
        "# {} ({}, seed {}, {} s): {}",
        w.name,
        if traced { "traced" } else { "untraced" },
        cfg.seed,
        seconds,
        w.why
    );
    for &(name, value, unit) in &result.metrics {
        println!("{name:<44} {value:>18.4} {unit}");
    }
    if !traced {
        // The end-to-end metrics BENCHMARK.json cannot gate, and the spread
        // of the throughput windows the gated ones came from.
        let ungated = spec::END_TO_END_UNGATED.iter().map(|d| (d.name, d.unit));
        for (name, unit) in ungated.chain([("window_spread", "ratio")]) {
            if let Some(v) = doc.get(name).and_then(Json::as_f64) {
                println!("{name:<44} {v:>18.4} {unit}");
            }
        }
    }
    for note in doc.get("notes").map(Json::items).unwrap_or_default() {
        println!("! {}", note.as_str().unwrap_or_default());
    }

    // Exactly the keys the acceptance driver expects, as the last line.
    let correct = result.failed == 0;
    let verdict = [
        ("correct", Json::from(correct)),
        ("attempted", Json::from(result.attempted as f64)),
        ("failed", Json::from(result.failed as f64)),
        ("metrics", metrics_json(&result.metrics)),
    ];
    if let Some(path) = args.get("doc-out") {
        if let Json::Obj(pairs) = &mut doc {
            pairs.extend(verdict.iter().map(|(k, v)| (k.to_string(), v.clone())));
        }
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", Json::object(verdict).to_line());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run `run` in a child process of this binary and read its document back.
fn child_run(w: &Workload, traced: bool, args: &Args, out_dir: &Path) -> Result<Json, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| format!("creating {}: {e}", out_dir.display()))?;
    let doc_path = out_dir.join(format!(
        ".{}.{}.json",
        w.name,
        if traced { "traced" } else { "untraced" }
    ));
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", w.name])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", args.get("seed").unwrap_or("1")])
        .arg("--out-dir")
        .arg(out_dir)
        .arg("--doc-out")
        .arg(&doc_path)
        .stdin(Stdio::null());
    for flag in ["seconds", "commit"] {
        if let Some(v) = args.get(flag) {
            cmd.args([format!("--{flag}"), v.to_string()]);
        }
    }
    // `status` waits for the child; nothing outlives this call.
    let status = cmd
        .status()
        .map_err(|e| format!("starting child run: {e}"))?;
    let text = std::fs::read_to_string(&doc_path)
        .map_err(|e| format!("{} ({}) produced no document: {e}", w.name, status))?;
    let _ = std::fs::remove_file(&doc_path);
    Json::parse(&text)
}

/// `suite`: every selected workload, untraced then traced.
fn suite(args: &Args, out_dir: &Path) -> Result<(Json, bool), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    let mut host_info = Json::Null;
    for w in args.workloads()? {
        let mut modes = Vec::new();
        for traced in [false, true] {
            let doc = child_run(w, traced, args, out_dir)?;
            all_correct &= doc.get("correct") == Some(&Json::Bool(true));
            if let Some(h) = doc.get("host") {
                host_info = h.clone();
            }
            modes.push((if traced { "traced" } else { "untraced" }, doc));
        }
        workloads.push((w.name, Json::object(modes)));
    }
    let doc = Json::object([
        ("benchmark", Json::from("cphash-benchmark")),
        ("format", Json::from(1.0)),
        ("host", host_info),
        ("all_correct", Json::from(all_correct)),
        ("workloads", Json::object(workloads)),
    ]);
    Ok((doc, all_correct))
}

fn cmd_suite(args: &Args) -> Result<ExitCode, String> {
    let out_dir = args.out_dir();
    let (doc, all_correct) = suite(args, &out_dir)?;
    let out = args
        .get("out")
        .map_or_else(|| out_dir.join("results.json"), PathBuf::from);
    std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!("# wrote {}", out.display());
    if !all_correct {
        eprintln!("error: at least one run reported failed operations");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn manifest(args: &Args) -> Result<Json, String> {
    read_json(args.get("manifest").unwrap_or("BENCHMARK.json"))
}

fn cmd_compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs exactly two result documents".to_string());
    };
    let rows = compare::rows(&read_json(a)?, &read_json(b)?, &manifest(args)?);
    print!("{}", compare::render(&rows));
    let regressed = rows
        .iter()
        .any(|r| r.gates && r.verdict == compare::Verdict::Regressed);
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn cmd_selfcheck(args: &Args) -> Result<ExitCode, String> {
    let out_dir = args.out_dir();
    let manifest = manifest(args)?;
    let (a, correct_a) = suite(args, &out_dir)?;
    let (b, correct_b) = suite(args, &out_dir)?;
    for (name, doc) in [("selfcheck_a.json", &a), ("selfcheck_b.json", &b)] {
        let path = out_dir.join(name);
        std::fs::write(&path, doc.to_pretty())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let rows = compare::rows(&a, &b, &manifest);
    print!("{}", compare::render(&rows));
    let mut ok = correct_a && correct_b;
    for r in &rows {
        // Same build on both sides: a move past the bound in *either*
        // direction means the benchmark cannot hold its own bound.
        let outside = matches!(
            r.verdict,
            compare::Verdict::Regressed | compare::Verdict::Improved
        );
        let one_sided = r.verdict == compare::Verdict::Missing && r.a.is_some() != r.b.is_some();
        if r.gates && (outside || one_sided) {
            eprintln!(
                "selfcheck: {} / {} is {:?}",
                r.workload, r.metric, r.verdict
            );
            ok = false;
        }
    }
    // The single-threaded kvproto rung is deterministic: its allocation
    // count must repeat exactly.
    for w in args.workloads()? {
        let count = |doc: &Json| {
            doc.get("workloads")?
                .get(w.name)?
                .get("traced")?
                .get("kvproto_rung_allocs_total")?
                .as_f64()
        };
        if count(&a) != count(&b) {
            eprintln!(
                "selfcheck: kvproto rung allocations differ on {}: {:?} vs {:?}",
                w.name,
                count(&a),
                count(&b)
            );
            ok = false;
        }
    }
    println!("# selfcheck {}", if ok { "passed" } else { "FAILED" });
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn usage() -> String {
    "usage: cphash-benchmark <run|suite|compare|selfcheck> [--workload W] [--seed N] \
     [--seconds S] [--trace 0|1] [--out FILE] [--out-dir DIR] [--manifest BENCHMARK.json]"
        .to_string()
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match command.as_str() {
        "run" => cmd_run(&args),
        "suite" => cmd_suite(&args),
        "compare" => cmd_compare(&args),
        "selfcheck" => cmd_selfcheck(&args),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
