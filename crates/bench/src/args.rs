//! Command-line arguments of the `figures` subcommand.

use std::path::PathBuf;

/// Parsed harness arguments.
///
/// Supported flags (every figure accepts the same set):
///
/// * `--quick` — shrink sweeps and operation counts for a fast smoke run.
/// * `--ops N` — override the number of operations per measured point.
/// * `--threads N` — override the number of client threads / pairs.
/// * `--csv PATH` — also write the figure's CSV to `PATH`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Fast smoke-run mode.
    pub quick: bool,
    /// Operation-count override.
    pub ops: Option<u64>,
    /// Client-thread / pair override.
    pub threads: Option<usize>,
    /// Optional CSV output path.
    pub csv_path: Option<PathBuf>,
}

impl HarnessArgs {
    /// Parse from an iterator of arguments (excluding the program name).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut parsed = HarnessArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--ops" => {
                    let v = iter.next().ok_or("--ops needs a value")?;
                    parsed.ops = Some(v.parse().map_err(|_| format!("bad --ops value: {v}"))?);
                }
                "--threads" => {
                    let v = iter.next().ok_or("--threads needs a value")?;
                    parsed.threads =
                        Some(v.parse().map_err(|_| format!("bad --threads value: {v}"))?);
                }
                "--csv" => {
                    let v = iter.next().ok_or("--csv needs a path")?;
                    parsed.csv_path = Some(PathBuf::from(v));
                }
                other => return Err(format!("unknown argument: {other}")),
            }
        }
        Ok(parsed)
    }

    /// The operation count to use for one measured point, given a default
    /// and the quick-mode divisor.
    pub fn ops_or(&self, default_ops: u64) -> u64 {
        if let Some(ops) = self.ops {
            return ops;
        }
        if self.quick {
            (default_ops / 10).max(10_000)
        } else {
            default_ops
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse_from(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags() {
        let a = parse(&[]).unwrap();
        assert!(!a.quick);
        assert_eq!(a.ops_or(1000), 1000);
        let a = parse(&[
            "--quick",
            "--ops",
            "500",
            "--threads",
            "4",
            "--csv",
            "/tmp/x.csv",
        ])
        .unwrap();
        assert!(a.quick);
        assert_eq!(a.ops, Some(500));
        assert_eq!(a.ops_or(1_000_000), 500);
        assert_eq!(a.threads, Some(4));
        assert_eq!(
            a.csv_path.as_deref(),
            Some(std::path::Path::new("/tmp/x.csv"))
        );
    }

    #[test]
    fn quick_divides_default_ops() {
        let a = parse(&["--quick"]).unwrap();
        assert_eq!(a.ops_or(1_000_000), 100_000);
        assert_eq!(a.ops_or(20_000), 10_000, "never below the floor");
    }

    #[test]
    fn bad_arguments_are_reported() {
        assert!(parse(&["--ops"]).is_err());
        assert!(parse(&["--ops", "abc"]).is_err());
        assert!(parse(&["--wat"]).is_err());
        assert!(parse(&["--help"]).is_err());
    }
}
