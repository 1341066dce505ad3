//! The repo-wide lint gate.
//!
//! `cargo test -p cphash-lint` fails if any shipped source under
//! `crates/*/src` violates the concurrency- or configuration-hygiene rules
//! (an environment read in any library module included), or if a doc
//! comment or README cites a Markdown file that does not exist, printing
//! every finding as `file:line: [rule] message` so the offending site is one
//! click away.

use std::path::Path;

fn repo_root() -> &'static Path {
    // tools/lint/ -> tools/ -> repo root
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels below the repo root")
}

#[test]
fn repo_is_lint_clean() {
    let report = cphash_lint::run(repo_root()).expect("lint walk failed");
    assert!(
        report.files_checked > 50,
        "lint only saw {} files — directory walk broken?",
        report.files_checked
    );
    if !report.violations.is_empty() {
        for v in &report.violations {
            eprintln!("{v}");
        }
        panic!(
            "{} lint violation(s) — see the list above",
            report.violations.len()
        );
    }
}

#[test]
fn violations_report_file_and_line() {
    let src = "use std::sync::atomic::AtomicU64;\n\nlet x = unsafe { *p };\n";
    let v = cphash_lint::lint_source(Path::new("crates/demo/src/x.rs"), src);
    let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
    assert_eq!(rules, ["raw-atomic", "safety-comment"]);
    assert!(v[0]
        .to_string()
        .starts_with("crates/demo/src/x.rs:1: [raw-atomic]"));
    assert!(v[1]
        .to_string()
        .starts_with("crates/demo/src/x.rs:3: [safety-comment]"));
}

#[test]
fn a_seeded_env_read_fails_the_gate() {
    // No library module reads a variable; it must stay that way.
    let src = "pub fn knob() -> bool {\n    std::env::var(\"CPHASH_SOME_KNOB\").is_ok()\n}\n";
    for module in [
        "crates/hashcore/src/partition.rs",
        "crates/core/src/config.rs",
        "crates/lockhash/src/config.rs",
        "crates/perfmon/src/trace.rs",
        "crates/kvserver/src/cpserver.rs",
        "crates/kvserver/src/reactor.rs",
    ] {
        let v = cphash_lint::lint_source(Path::new(module), src);
        assert_eq!(v.len(), 1, "{module}");
        assert!(v[0]
            .to_string()
            .starts_with(&format!("{module}:2: [env-read]")));
    }
}

#[test]
fn a_seeded_dangling_doc_reference_fails_the_gate() {
    let known = cphash_lint::markdown_files(repo_root()).expect("markdown walk failed");
    assert!(known.iter().any(|k| k == "EXPERIMENTS.md"), "{known:?}");
    // The two citations this rule was written for: a design document that
    // never existed, next to a report that does.
    let src = "//! Hardware counters are modelled (see MISSING.md §4);\n\
               //! results are recorded in EXPERIMENTS.md.\n";
    let module = "crates/bench/src/lib.rs";
    let v = cphash_lint::lint_doc_refs(Path::new(module), src, &known);
    assert_eq!(v.len(), 1, "{v:?}");
    assert!(v[0]
        .to_string()
        .starts_with(&format!("{module}:1: [doc-ref] `MISSING.md`")));
    for document in cphash_lint::CHECKED_DOCUMENTS {
        let v = cphash_lint::lint_doc_refs(Path::new(document), "see NO_SUCH.md\n", &known);
        assert_eq!(v.len(), 1, "{document}");
        assert!(repo_root().join(document).is_file(), "{document}");
    }
}
