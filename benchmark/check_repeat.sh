#!/bin/sh
# Repeatability self-check: the full suite twice, back to back, on this
# commit. Fails unless every end-to-end metric on every workload agrees
# between the two runs within its own bound (queries_per_run, the failure
# counts and the storage counts exactly). Prints the spread table, nproc
# and the build profile. Run from the repository root; extra arguments
# (e.g. --seed 1999, --seconds 5) are passed through.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --repeat 2 "$@"
