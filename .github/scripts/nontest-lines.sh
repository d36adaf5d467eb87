#!/usr/bin/env bash
# Count the non-test lines of the Rust sources under each given directory.
#
#   nontest-lines.sh <dir>...        e.g.  nontest-lines.sh crates/dist/src crates/
#
# A file counts up to its inline test module: the `#[cfg(test)]` line
# directly followed by `mod tests {`, which ends the count. An
# out-of-line `mod tests;` declaration does not end it, so the code after
# it counts. Test files (`tests.rs`, anything under a `tests/` directory)
# and build output (`target/`) count nothing. Prints `<dir> <lines>`.
set -euo pipefail

[ $# -gt 0 ] || { echo "usage: $0 <dir>..." >&2; exit 2; }
for dir in "$@"; do
  find "$dir" -name '*.rs' -not -name tests.rs -not -path '*/tests/*' -not -path '*/target/*' -print0 |
    xargs -0 -r awk '
      FNR == 1 { cut = 0; prev_cfg = 0 }
      cut { next }
      prev_cfg && /^[[:space:]]*mod tests \{/ { n--; cut = 1; next }
      { n++; prev_cfg = /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ }
      END { print n + 0 }' |
    awk -v dir="$dir" '{ s += $1 } END { print dir, s + 0 }'
done
