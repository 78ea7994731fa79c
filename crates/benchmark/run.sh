#!/usr/bin/env bash
# Builds agebo-benchmark from this checkout and runs it with the given
# arguments — the command BENCHMARK.json names:
#
#   bash crates/benchmark/run.sh --workload search_train --seed 1 --seconds 12 --trace 0
#
# Everything is read and written inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default .bench_build), the offline stand-ins for the
# external crates are vendored from tools/offline-stubs into that
# directory, and the benchmark keeps its scratch files there too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
vendor="$CARGO_TARGET_DIR/vendor"
if [ ! -d "$vendor" ]; then
  mkdir -p "$CARGO_TARGET_DIR"
  sh tools/offline-stubs/setup.sh "$vendor.tmp" >&2
  mv "$vendor.tmp" "$vendor"
fi
cargo --config 'source.crates-io.replace-with="vendored-sources"' \
      --config "source.vendored-sources.directory=\"$vendor\"" \
      build --offline --release --quiet -p agebo-benchmark >&2
exec "$CARGO_TARGET_DIR/release/agebo-benchmark" "$@"
