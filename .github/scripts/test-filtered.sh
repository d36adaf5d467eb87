#!/usr/bin/env bash
# Run a name-filtered `cargo test` step and fail it if any of its filters
# selects no test: a rename or a move must not turn a gate into a no-op.
#
#   test-filtered.sh <cargo test args> -- <filter>... [<libtest flag>...]
#
# e.g.  test-filtered.sh -p tt-dist --lib -- transport --nocapture
#
# Each filter is first counted with `--list` (ignored tests count only
# under --include-ignored), the counts are printed, and then the step
# runs once with all of its filters.
set -euo pipefail

cargo_args=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do
  cargo_args+=("$1")
  shift
done
[ $# -gt 0 ] || { echo "usage: $0 <cargo test args> -- <filter>... [flags]" >&2; exit 2; }
shift

filters=()
flags=()
for arg in "$@"; do
  case "$arg" in
    -*) flags+=("$arg") ;;
    *) filters+=("$arg") ;;
  esac
done
[ ${#filters[@]} -gt 0 ] || { echo "$0: no filter given" >&2; exit 2; }

run_ignored=no
for flag in ${flags[@]+"${flags[@]}"}; do
  [ "$flag" = "--include-ignored" ] && run_ignored=yes
done

# Tests `cargo test <cargo args> -- <filter> --list <extra>` names.
listed() {
  cargo test --quiet "${cargo_args[@]}" -- "$@" --list | grep -c ': test$' || true
}

for filter in "${filters[@]}"; do
  count=$(listed "$filter")
  if [ "$run_ignored" = no ]; then
    count=$((count - $(listed "$filter" --ignored)))
  fi
  echo "filter '$filter': $count tests"
  if [ "$count" -eq 0 ]; then
    echo "error: filter '$filter' selects no test in: cargo test ${cargo_args[*]}" >&2
    exit 1
  fi
done

exec cargo test "${cargo_args[@]}" -- "${filters[@]}" ${flags[@]+"${flags[@]}"}
