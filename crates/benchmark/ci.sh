#!/usr/bin/env bash
# CI smoke: the quick benchmark (a quarter of every budget, one rep) with
# its correctness gate, in under a minute. Results are stamped
# "quick": true and `compare` refuses them; this checks that the
# benchmark runs and its outputs verify, not how fast anything is.
set -euo pipefail
exec bash "$(dirname "${BASH_SOURCE[0]}")/run.sh" run --quick "$@"
