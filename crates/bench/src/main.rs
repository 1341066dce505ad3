//! `cphash-bench figures <name>|all [--quick] [--ops N] [--threads N]
//! [--csv PATH]` regenerates the paper's evaluation on this host;
//! `cphash-bench figures --list` names the entries.
//!
//! Stdout is a Markdown document (`figures all --quick > EXPERIMENTS.md` is
//! how the committed report is made): per figure the paper's claim and this
//! host's table, under the paper → host thread mapping.  Progress goes to
//! stderr.  `--csv` writes the CSV of every figure that ran to one file.

use cphash_bench::figures::{find, FIGURES};
use cphash_bench::{HarnessArgs, MachineScale};

const USAGE: &str =
    "usage: cphash-bench figures <name>|all|--list [--quick] [--ops N] [--threads N] [--csv PATH]";

fn fail(message: &str) -> ! {
    eprintln!("{message}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let command: Vec<String> = std::env::args().skip(1).collect();
    let [subcommand, target, flags @ ..] = command.as_slice() else {
        fail("missing arguments")
    };
    if subcommand != "figures" {
        fail(&format!("unknown subcommand {subcommand:?}"));
    }
    if target == "--list" {
        for figure in &FIGURES {
            println!("{:<20} {}", figure.name, figure.paper_label());
        }
        return;
    }
    let selected = match target.as_str() {
        "all" => FIGURES.iter().collect(),
        name => vec![find(name).unwrap_or_else(|e| fail(&e))],
    };
    let args = HarnessArgs::parse_from(flags.iter().cloned()).unwrap_or_else(|e| fail(&e));
    let scale = MachineScale::detect(args.threads);

    println!(
        "# EXPERIMENTS — the paper's evaluation on this host\n\n\
         Stdout of `cphash-bench {}` (the committed copy: \
         `cargo run --release -p cphash-bench -- figures all --quick > EXPERIMENTS.md`).  \
         Absolute throughput on the paper's 80-core machine is not reproducible here; what \
         each section compares is the shape — who wins, by roughly what factor, where the \
         crossovers sit.\n\n\
         **Host mapping.**\n\n```text\n{}\n```",
        command.join(" "),
        scale.describe()
    );
    let mut csv = String::new();
    for figure in selected {
        eprintln!("== {} ({})", figure.name, figure.paper_label());
        let report = (figure.run)(&scale, &args);
        print!("\n{}", figure.section(&report));
        csv.push_str(&report.to_csv());
    }
    if let Some(path) = &args.csv_path {
        if let Err(e) = std::fs::write(path, csv) {
            eprintln!("could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
