#!/usr/bin/env bash
# Build the benchmark offline and run it.  See bench/README.md.
#
#   bench/run.sh [--seed N] [--workload W] [--seconds S] [--out FILE]
#       every workload (or W), untraced then traced; prints every metric,
#       writes one JSON document (default bench/out/results.json) and the
#       per-workload trace files bench/out/<workload>.trace.jsonl.
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last stdout line is the acceptance driver's JSON.
#   bench/run.sh compare A.json B.json
#   bench/run.sh selfcheck [--seed N] [--seconds S]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The shipped defaults are what is measured.
for name in $(compgen -e | grep '^CPHASH_' || true); do
    unset "$name"
done

# Build into the repository's target/ unless the caller chose a directory
# (the acceptance driver does); cargo reads a relative one against the
# working directory, so pin it down before anything changes directory.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout belongs to the results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

command=suite
case "${1:-}" in
    compare | selfcheck)
        command="$1"
        shift
        ;;
    *)
        for arg in "$@"; do
            if [ "$arg" = "--trace" ]; then
                command=run
            fi
        done
        ;;
esac

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
exec "$target/release/cphash-benchmark" "$command" \
    --out-dir "$here/out" \
    --manifest "$root/BENCHMARK.json" \
    --commit "$commit" \
    "$@"
