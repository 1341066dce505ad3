//! Repo-local static lint pass for concurrency and configuration hygiene.
//!
//! Six rules, all line-oriented (see [`RULES`]):
//!
//! 1. `raw-atomic` — no `std::sync::atomic` / `core::sync::atomic` imports
//!    or paths outside the `cphash-sync` facade.  Everything goes through
//!    `cphash_sync::atomic` so `cfg(cphash_model)` can swap the
//!    implementation.
//! 2. `relaxed-justification` — every `Ordering::Relaxed` carries a
//!    `// relaxed: …` justification on the same line or the line above.
//! 3. `safety-comment` — every `unsafe` block is preceded by a
//!    `// SAFETY: …` comment (same line or in the comment block directly above).
//! 4. `hot-path` — files tagged `// cphash-lint: hot-path` must not call
//!    panicking or allocating constructs on shipped lines, nor a locked
//!    read-modify-write (`fetch_add` / `fetch_sub`).
//! 5. `env-read` — no `std::env::var` / `var_os` outside binaries: no
//!    library module reads the environment.  Configuration reaches a
//!    library through its config structs.
//! 6. `doc-ref` — a `*.md` file named in a `//!` / `///` comment, or
//!    anywhere in [`CHECKED_DOCUMENTS`], exists in the repository, so a
//!    deleted document takes its citations with it.
//!
//! Escapes: a `// lint: allow(<rule>)` comment on the line itself or in the
//! contiguous comment block directly above waives that rule for that line;
//! everything from `#[cfg(test)]` to end-of-file is skipped (test modules
//! live at the bottom of files in this repo).
//!
//! This is a text-level pass, deliberately: it runs in milliseconds with no
//! syn/proc-macro dependency (the tree is offline), and the conventions it
//! enforces are textual conventions.

#![deny(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Names of the rules, in evaluation order.
pub const RULES: [&str; 6] = [
    "raw-atomic",
    "relaxed-justification",
    "safety-comment",
    "hot-path",
    "env-read",
    "doc-ref",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path (as scanned) of the offending file.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in file/line order.
    pub violations: Vec<Violation>,
    /// Number of files scanned.
    pub files_checked: usize,
}

/// Files allowed to name `std::sync::atomic`: the facade itself.
fn is_facade(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.ends_with("crates/sync/src/atomic.rs")
}

/// Files allowed to read the environment: binaries only (a process may
/// consult its own environment at start-up).
fn may_read_env(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("/src/bin/") || p.ends_with("/src/main.rs")
}

/// Strip string literals and `//` comments' *content* is still needed for
/// our own markers, so instead of full lexing we only blank out string
/// literals (so `"unsafe {"` in a message doesn't trip rule 3).  Char
/// literals and raw strings are rare enough in this tree to ignore.
fn code_portion(line: &str) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut comment = String::new();
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                }
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                code.push_str("\"…\"");
            }
            '/' if chars.peek() == Some(&'/') => {
                comment.push('/');
                comment.extend(chars);
                break;
            }
            _ => code.push(c),
        }
    }
    (code, comment)
}

/// Does the contiguous run of `//` comment lines directly above line `i`
/// contain `marker`?  Allows multi-line justification comments.
fn comment_block_above(lines: &[&str], i: usize, marker: &str) -> bool {
    let mut j = i;
    while j > 0 {
        let prev = lines[j - 1].trim_start();
        if !prev.starts_with("//") {
            return false;
        }
        if prev.contains(marker) {
            return true;
        }
        j -= 1;
    }
    false
}

fn has_waiver(comment: &str, rule: &str) -> bool {
    comment
        .split("lint: allow(")
        .skip(1)
        .any(|rest| rest.trim_start().starts_with(rule))
}

/// Waiver on the line itself or in the comment block directly above (long
/// waiver comments don't fit rustfmt's line budget inline).
fn waived(lines: &[&str], i: usize, comment: &str, rule: &str) -> bool {
    has_waiver(comment, rule) || comment_block_above(lines, i, &format!("lint: allow({rule}"))
}

/// Why a hot path may not bump a counter with a locked read-modify-write.
const LOCKED_RMW: &str = "is a locked read-modify-write: a counter with one writer uses \
                          `cphash_sync::atomic::plain::single_writer_add`; a counter with \
                          several writers takes a `lint: allow(hot-path)` naming them";

/// Constructs banned on hot-path lines: things that can panic or allocate,
/// and locked read-modify-writes.
const HOT_PATH_BANNED: &[(&str, &str)] = &[
    ("panic!(", "panics"),
    ("unreachable!(", "panics"),
    ("todo!(", "panics"),
    ("unimplemented!(", "panics"),
    (".unwrap()", "panics"),
    (".expect(", "panics"),
    ("assert!(", "panics (use debug_assert!)"),
    ("assert_eq!(", "panics (use debug_assert_eq!)"),
    ("assert_ne!(", "panics (use debug_assert_ne!)"),
    ("vec![", "allocates"),
    ("Vec::new", "allocates"),
    ("Vec::with_capacity", "allocates"),
    ("Box::new", "allocates"),
    ("String::new", "allocates"),
    ("String::from", "allocates"),
    (".to_string()", "allocates"),
    (".to_owned()", "allocates"),
    (".to_vec()", "allocates"),
    ("format!(", "allocates"),
    (".fetch_add(", LOCKED_RMW),
    (".fetch_sub(", LOCKED_RMW),
];

/// Lint one file's contents.  `path` is used for reporting and the facade
/// allowlist only.
pub fn lint_source(path: &Path, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = source.lines().collect();
    let parsed: Vec<(String, String)> = lines.iter().map(|l| code_portion(l)).collect();
    let hot_path = lines
        .iter()
        .take(40)
        .any(|l| l.contains("cphash-lint: hot-path"));
    let facade = is_facade(path);
    let env_reader = may_read_env(path);
    let mut in_tests = false;

    for (i, (code, comment)) in parsed.iter().enumerate() {
        let lineno = i + 1;
        let raw = lines[i];
        if raw.trim_start().starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests {
            continue;
        }

        // Rule 1: raw atomic paths outside the facade.
        if !facade
            && (code.contains("std::sync::atomic") || code.contains("core::sync::atomic"))
            && !waived(&lines, i, comment, "raw-atomic")
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: "raw-atomic",
                message: "raw std/core atomic path; use the cphash_sync::atomic facade \
                          (modeled) or cphash_sync::atomic::plain (diagnostics)"
                    .to_string(),
            });
        }

        // Rule 2: Relaxed needs a justification comment.
        if code.contains("Ordering::Relaxed")
            && !waived(&lines, i, comment, "relaxed-justification")
        {
            let here = comment.contains("relaxed:");
            if !here && !comment_block_above(&lines, i, "relaxed:") {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: "relaxed-justification",
                    message: "Ordering::Relaxed without a `// relaxed: …` justification \
                              (same line or the comment block above)"
                        .to_string(),
                });
            }
        }

        // Rule 3: unsafe blocks need a SAFETY comment.
        if code.contains("unsafe {") && !waived(&lines, i, comment, "safety-comment") {
            let here = comment.contains("SAFETY:");
            if !here && !comment_block_above(&lines, i, "SAFETY:") {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: "safety-comment",
                    message: "unsafe block without a preceding `// SAFETY: …` comment".to_string(),
                });
            }
        }

        // Rule 5: the environment is read by binaries only.
        if !env_reader
            && (code.contains("env::var(") || code.contains("env::var_os("))
            && !waived(&lines, i, comment, "env-read")
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: "env-read",
                message: "environment read in a library module; take the value through a \
                          config struct (only binaries are exempt)"
                    .to_string(),
            });
        }

        // Rule 4: hot-path files must not panic or allocate.
        if hot_path && !waived(&lines, i, comment, "hot-path") {
            // debug_assert! lines contain "assert!(" as a substring; they
            // compile out in release builds and are explicitly allowed.
            let code = code.replace("debug_assert", "dbga");
            for (pat, why) in HOT_PATH_BANNED {
                if code.contains(pat) {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: lineno,
                        rule: "hot-path",
                        message: format!("`{pat}` {why}; banned in hot-path-tagged modules"),
                    });
                }
            }
        }
    }
    out
}

/// Markdown documents whose every line is checked by `doc-ref` (source
/// files are checked in their doc comments only).
pub const CHECKED_DOCUMENTS: [&str; 3] = ["README.md", "bench/README.md", "docs/RETIRED.md"];

/// Rule 6: every `*.md` name on a checked line must be one of `known` (the
/// repository's Markdown files, as paths relative to its root; a bare file
/// name matches in any directory).  In a `.rs` file only doc comments are
/// checked lines.
pub fn lint_doc_refs(path: &Path, text: &str, known: &[String]) -> Vec<Violation> {
    let source_file = path.extension().is_some_and(|e| e == "rs");
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        let doc_comment = trimmed.starts_with("//!") || trimmed.starts_with("///");
        if (source_file && !doc_comment) || has_waiver(line, "doc-ref") {
            continue;
        }
        for (end, _) in line.match_indices(".md") {
            let is_name_char = |c: char| c.is_ascii_alphanumeric() || "_-./".contains(c);
            if line[end + 3..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
                continue;
            }
            let stem = line[..end]
                .rfind(|c: char| !is_name_char(c))
                .map_or(0, |before| before + 1);
            let name = line[stem..end + 3].trim_start_matches("./");
            let exists = known
                .iter()
                .any(|k| k == name || k.ends_with(&format!("/{name}")));
            if name.len() > 3 && !exists {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule: "doc-ref",
                    message: format!("`{name}` is not a file in this repository"),
                });
            }
        }
    }
    out
}

/// Every `.md` file under `root`, as `/`-separated paths relative to it
/// (build output and git metadata excluded).
pub fn markdown_files(root: &Path) -> std::io::Result<Vec<String>> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().unwrap_or_default().to_string_lossy();
            if path.is_dir() {
                if !matches!(&*name, "target" | ".git" | ".bench_build") {
                    walk(root, &path, out)?;
                }
            } else if name.ends_with(".md") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    walk(root, root, &mut out)?;
    Ok(out)
}

fn is_excluded(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    p.contains("/vendor/")
        || p.contains("/target/")
        || p.contains("/tools/")
        || p.contains("/tests/")
        || p.contains("/benches/")
        || p.contains("/examples/")
        || p.contains("/.git/")
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if is_excluded(&path) {
            continue;
        }
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the repo rooted at `root`: every `.rs` file under `crates/*/src`
/// and the root package's `src/`, plus [`CHECKED_DOCUMENTS`].
pub fn run(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in std::fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();

    let known = markdown_files(root)?;
    let mut report = Report::default();
    for file in &files {
        let source = std::fs::read_to_string(file)?;
        let rel = file.strip_prefix(root).unwrap_or(file);
        report.violations.extend(lint_source(rel, &source));
        report
            .violations
            .extend(lint_doc_refs(rel, &source, &known));
        report.files_checked += 1;
    }
    for document in CHECKED_DOCUMENTS {
        let text = std::fs::read_to_string(root.join(document))?;
        report
            .violations
            .extend(lint_doc_refs(Path::new(document), &text, &known));
        report.files_checked += 1;
    }
    report
        .violations
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(path: &str, src: &str) -> Vec<Violation> {
        lint_source(Path::new(path), src)
    }

    #[test]
    fn raw_atomic_flagged_outside_facade() {
        let v = lint_str(
            "crates/core/src/x.rs",
            "use std::sync::atomic::AtomicU64;\n",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "raw-atomic");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn raw_atomic_allowed_in_facade_and_waived() {
        assert!(lint_str(
            "crates/sync/src/atomic.rs",
            "pub use std::sync::atomic::AtomicU64;\n"
        )
        .is_empty());
        assert!(lint_str(
            "crates/core/src/x.rs",
            "use std::sync::atomic::AtomicU64; // lint: allow(raw-atomic) counters only\n"
        )
        .is_empty());
    }

    #[test]
    fn relaxed_needs_justification() {
        let bad = "x.load(Ordering::Relaxed);\n";
        let v = lint_str("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-justification");

        let same_line = "x.load(Ordering::Relaxed); // relaxed: stat counter\n";
        assert!(lint_str("crates/core/src/x.rs", same_line).is_empty());

        let line_above = "// relaxed: stat counter\nx.load(Ordering::Relaxed);\n";
        assert!(lint_str("crates/core/src/x.rs", line_above).is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let bad = "let y = unsafe { *p };\n";
        let v = lint_str("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "safety-comment");

        let good = "// SAFETY: p is valid for the slab lifetime\nlet y = unsafe { *p };\n";
        assert!(lint_str("crates/core/src/x.rs", good).is_empty());

        // `unsafe {` inside a string literal is not a block.
        let in_str = "let s = \"unsafe { }\";\n";
        assert!(lint_str("crates/core/src/x.rs", in_str).is_empty());
    }

    #[test]
    fn hot_path_bans_panic_and_alloc() {
        let src = "\
// cphash-lint: hot-path
fn f(x: Option<u32>) -> u32 {
    let v = x.unwrap();
    let b = Box::new(v);
    debug_assert!(*b > 0);
    *b
}
";
        let v = lint_str("crates/core/src/x.rs", src);
        let rules: Vec<&str> = v.iter().map(|v| v.rule).collect();
        assert_eq!(rules, ["hot-path", "hot-path"]);
        assert!(v[0].message.contains(".unwrap()"));
        assert!(v[1].message.contains("Box::new"));
    }

    #[test]
    fn hot_path_waiver_and_untagged_files() {
        let tagged =
            "// cphash-lint: hot-path\nlet v = x.unwrap(); // lint: allow(hot-path) startup only\n";
        assert!(lint_str("crates/core/src/x.rs", tagged).is_empty());
        let untagged = "let v = x.unwrap();\n";
        assert!(lint_str("crates/core/src/x.rs", untagged).is_empty());
    }

    #[test]
    fn hot_path_bans_locked_counter_adds_unless_waived() {
        let src = "\
// cphash-lint: hot-path
fn f(stats: &Stats) {
    stats.ops.fetch_add(1, Ordering::Relaxed); // relaxed: counter
    // lint: allow(hot-path) every worker thread bumps this one
    stats.shared.fetch_sub(1, Ordering::Relaxed); // relaxed: counter
}
";
        let v = lint_str("crates/core/src/x.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!((v[0].line, v[0].rule), (3, "hot-path"));
        assert!(v[0].message.contains("single_writer_add"));
    }

    #[test]
    fn env_reads_flagged_outside_binaries() {
        let read = "let v = std::env::var(\"CPHASH_SOME_KNOB\");\n";
        for library in [
            "crates/hashcore/src/partition.rs",
            "crates/core/src/config.rs",
            "crates/lockhash/src/config.rs",
            "crates/kvserver/src/acceptor.rs",
            "crates/kvserver/src/reactor.rs",
        ] {
            let v = lint_str(library, read);
            assert_eq!(v.len(), 1, "{library}");
            assert_eq!(v[0].rule, "env-read");
        }
        let os = "if std::env::var_os(\"X\").is_some() {}\n";
        assert_eq!(lint_str("crates/core/src/x.rs", os)[0].rule, "env-read");

        for exempt in [
            "crates/kvserver/src/bin/cpserverd.rs",
            "tools/lint/src/main.rs",
        ] {
            assert!(lint_str(exempt, read).is_empty(), "{exempt}");
        }
        let waived = "let v = std::env::var(\"X\"); // lint: allow(env-read) probe\n";
        assert!(lint_str("crates/core/src/x.rs", waived).is_empty());
        // Command-line arguments are not the environment.
        assert!(lint_str("crates/core/src/x.rs", "std::env::args().skip(1);\n").is_empty());
    }

    #[test]
    fn doc_refs_must_name_existing_markdown_files() {
        let known = ["README.md".to_string(), "bench/README.md".to_string()];
        let src = "\
//! See MISSING.md §4 and `bench/README.md`; README.md has the rest.
/// Recorded in ./EXPERIMENTS.md.
// a plain comment may say NOTES.md
let s = \"GONE.md\";
/// Not a name: foo.mdx, .md alone.
/// Gone on purpose: OLD.md (lint: allow(doc-ref) history)
";
        let v = lint_doc_refs(Path::new("crates/core/src/x.rs"), src, &known);
        let found: Vec<(usize, &str)> = v.iter().map(|v| (v.line, v.rule)).collect();
        assert_eq!(found, [(1, "doc-ref"), (2, "doc-ref")]);
        assert!(v[0].message.contains("`MISSING.md`"));
        assert!(v[1].message.contains("`EXPERIMENTS.md`"));

        // A checked document is read on every line.
        let v = lint_doc_refs(Path::new("README.md"), "see NOTES.md\n", &known);
        assert_eq!(v.len(), 1);
        assert!(lint_doc_refs(Path::new("README.md"), "see README.md\n", &known).is_empty());
    }

    #[test]
    fn test_region_skipped() {
        let src = "\
fn shipped() {}
#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;
    fn f(x: &AtomicU64) { x.load(Ordering::Relaxed); }
}
";
        assert!(lint_str("crates/core/src/x.rs", src).is_empty());
    }
}
