#!/usr/bin/env bash
# Builds the benchmark from source, then runs one workload.
#
#   bash hopbench/run.sh --workload <read-uniform|mixed-ft|churn> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Untraced runs use `hopbench`; traced runs use `hopbench-traced`, the
# same code linked with a counting global allocator, so untraced
# numbers carry no allocator hook. Build output goes to
# $CARGO_TARGET_DIR (default: hopbench/target). The run itself starts
# in the repository root, where it keeps its scratch files in
# .bench_work/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
bin=hopbench
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then
        bin=hopbench-traced
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
