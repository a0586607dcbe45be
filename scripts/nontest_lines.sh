#!/usr/bin/env bash
# Count non-test lines of Rust, per file, against a git revision.
#
#   scripts/nontest_lines.sh [--against REV]     (REV defaults to HEAD)
#
# A file's non-test lines are the lines before its first `#[cfg(test)]`
# (all of them when it has none). Counted: `src/`, `crates/*/src`,
# `crates/bench/benches`, `examples/` and `vendor/*/src`; files under a
# `tests/` directory are tests and never counted. The working tree is
# compared with REV: every file whose count differs is printed as
# `REV -> now (net)`, followed by the totals over all counted files.
set -euo pipefail

rev=HEAD
while [ $# -gt 0 ]; do
  case "$1" in
    --against) rev="${2:?--against needs a revision}"; shift 2 ;;
    *) echo "usage: $0 [--against REV]" >&2; exit 64 ;;
  esac
done
cd "$(git rev-parse --show-toplevel)"
git rev-parse --verify -q "$rev^{commit}" >/dev/null || { echo "unknown revision: $rev" >&2; exit 64; }

counted() {
  grep -E '^(src/|crates/[^/]+/src/|crates/bench/benches/|examples/|vendor/[^/]+/src/).*\.rs$' |
    grep -Ev '(^|/)tests/' || true
}
# Reads its input to the end, so that `git show` upstream never meets a
# closed pipe.
nontest() { awk '/^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'; }

declare -A old new
while IFS= read -r f; do
  old[$f]=$(git show "$rev:$f" | nontest)
done < <(git ls-tree -r --name-only "$rev" | counted)
while IFS= read -r f; do
  if [ -f "$f" ]; then new[$f]=$(nontest < "$f"); fi
done < <(git ls-files --cached --others --exclude-standard | counted)

printf '%-56s %8s %8s %8s\n' file "$(git rev-parse --short "$rev")" now net
total_old=0 total_new=0
for f in $(printf '%s\n' "${!old[@]}" "${!new[@]}" | sort -u); do
  a=${old[$f]:-0} b=${new[$f]:-0}
  total_old=$((total_old + a)) total_new=$((total_new + b))
  if [ "$a" -ne "$b" ]; then printf '%-56s %8d %8d %+8d\n' "$f" "$a" "$b" $((b - a)); fi
done
printf '%-56s %8d %8d %+8d\n' total "$total_old" "$total_new" $((total_new - total_old))
