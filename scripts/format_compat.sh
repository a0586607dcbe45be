#!/usr/bin/env bash
# Check that this tree reads and writes the record formats BASE does.
#
#   scripts/format_compat.sh BASE
#
# BASE is any git revision (CI passes the merge base). Its tree is
# exported with `git archive` into a temporary directory and built there
# (`cargo build --release --offline`); this tree is built in place. Then:
#
#   1. Each of three runs is journaled by both binaries, in process and
#      over two subprocess workers (`--dist-workers 2`), and the journals
#      must be byte for byte the same (`cmp`): a restart-heavy deck, a
#      premature exit, and a long sliding-window run.
#   2. A journal BASE's binary stops after three stages (`--max-stages 3`,
#      exit 3) is resumed by this tree's binary, which must finish the
#      run and print the verified line.
#
# Exits 0 when every check holds, 1 on the first that does not (naming
# it), 64 on a usage error. The temporary directory is removed on exit.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 BASE" >&2; exit 64; }
cd "$(git rev-parse --show-toplevel)"
base=$(git rev-parse --verify -q "$1^{commit}") || { echo "unknown revision: $1" >&2; exit 64; }

work=$(mktemp -d "${TMPDIR:-/tmp}/rlrpd-format-compat.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$base" | tar -x -C "$work/base"

echo "format-compat: building $(git rev-parse --short "$base") and this tree"
(cd "$work/base" && cargo build --release --offline -q --bin rlrpd)
cargo build --release --offline -q --bin rlrpd
base_bin="$work/base/target/release/rlrpd"
this_bin="$PWD/target/release/rlrpd"

fail() { echo "format-compat: FAIL: $*" >&2; exit 1; }

cases=(
  "lu_sparse.rlp --procs 4"
  "premature_exit.rlp --procs 4 --strategy rd"
  "tracking_large.rlp --procs 4 --strategy sw:512"
)
for case in "${cases[@]}"; do
  read -r prog args <<<"$case"
  for fleet in "" "--dist-workers 2"; do
    what="$prog $args${fleet:+ $fleet}"
    for side in base this; do
      bin="${side}_bin"
      # shellcheck disable=SC2086 # the arguments are words on purpose
      "${!bin}" run "examples/programs/$prog" $args $fleet \
        --journal "$work/$side.journal" >"$work/$side.out" ||
        fail "$what: the $side binary exited $?"
    done
    cmp "$work/base.journal" "$work/this.journal" ||
      fail "$what: the journals differ"
    echo "format-compat: $what: journals identical ($(wc -c <"$work/this.journal") bytes)"
  done
done

prog=examples/programs/lu_sparse.rlp
status=0
"$base_bin" run "$prog" --procs 4 --max-stages 3 --journal "$work/cut.journal" \
  >"$work/cut.out" 2>"$work/cut.err" || status=$?
[ "$status" -eq 3 ] || fail "the base binary's --max-stages 3 run exited $status, not 3"
"$this_bin" run "$prog" --procs 4 --journal "$work/cut.journal" --resume >"$work/resumed.out" ||
  fail "resuming the base binary's journal exited $?"
grep -q "verified against sequential execution" "$work/resumed.out" ||
  fail "the resumed run did not verify"
echo "format-compat: this tree resumed the base binary's cut journal and verified"
