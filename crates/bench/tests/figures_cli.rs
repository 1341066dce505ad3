//! The `cphash-bench figures` command line, driven as a process.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cphash-bench"))
        .arg("figures")
        .args(args)
        .output()
        .expect("running cphash-bench")
}

#[test]
fn list_names_every_entry() {
    let out = figures(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let expected: Vec<&str> = cphash_bench::figures::FIGURES
        .iter()
        .map(|f| f.name)
        .collect();
    assert_eq!(names, expected);
    for label in ["Figure 5", "Figure 6–7", "Figure 14"] {
        assert!(stdout.contains(label), "{stdout}");
    }
}

#[test]
fn an_unknown_name_or_flag_exits_nonzero_and_says_what_is_valid() {
    let out = figures(&["fig99"]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    for figure in &cphash_bench::figures::FIGURES {
        assert!(stderr.contains(figure.name), "{stderr}");
    }

    // The five flags `anykey_mixed` used to take are gone with its parser.
    let out = figures(&["anykey", "--keys", "4000"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown argument: --keys"), "{stderr}");
    assert!(stderr.contains("--quick"), "{stderr}");
}
