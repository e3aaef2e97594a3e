#!/usr/bin/env bash
# The benchmark's one entry point: builds the harness offline with the
# repo's own release profile, then hands every argument to it.
#
#   benchmark/run.sh                      every workload, result file + tables
#   benchmark/run.sh --smoke              the same path, windows cut 50x (< 60 s)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one run, result as the last line (JSON)
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# The build log goes to stderr: stdout ends with the result line.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/gcs-benchmark" "$@"
