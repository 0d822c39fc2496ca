#!/usr/bin/env bash
# Run the wassray command end to end on small inputs written to a work
# directory; tier-1 checks the outputs (tests/test_cli.py and
# tests/test_acceptance.py).
#
# Usage:
#     scripts/cli_smoke.sh WORK_DIR
#     WASSRAY="python3 -m wassray" PYTHONPATH=src scripts/cli_smoke.sh WORK_DIR
#
# WASSRAY is the command to run (default: the installed console script,
# wassray). Any failed check exits nonzero.
set -euo pipefail

work=${1:?usage: cli_smoke.sh WORK_DIR}
mkdir -p "$work"
read -ra cmd <<< "${WASSRAY:-wassray}"
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

# "command" skips this function, so a plain "wassray" runs the console script
wassray() { command "${cmd[@]}" "$@"; }

# numpy's RuntimeWarnings are errors here, as in pyproject.toml's
# filterwarnings for the suite, and so is an EncodingWarning: every text
# file the command reads or writes is opened as UTF-8, including a measure
# file with a comment, a blank line and CRLF line ends.
export PYTHONWARNDEFAULTENCODING=1
export PYTHONWARNINGS=error::RuntimeWarning,error::EncodingWarning

wassray ray-new dirac --origin 0,0 --velocity 1,0 --out "$work/r.rays"
printf 'measure\ndim 2\natoms 1\n3.0 4.0 1.0\n' > "$work/nu.measure"
printf '# two atoms\r\nmeasure\r\n\r\ndim 2\r\natoms 2  # count\r\n0.0 0.0 0.5\r\n3.0 4.0 0.5\r\n' > "$work/crlf.measure"
wassray dist "$work/crlf.measure" "$work/nu.measure"
wassray couple "$work/crlf.measure" "$work/nu.measure"
wassray busemann "$work/r.rays" "$work/nu.measure"
wassray busemann "$work/r.rays" "$work/nu.measure" --t0 1
wassray busemann "$work/r.rays" "$work/nu.measure" --out-csv "$work/curve.csv"
wassray coray "$work/r.rays" "$work/nu.measure"

# An empty --schedule is an input error (exit 2), not the default schedule.
rc=0; wassray coray "$work/r.rays" "$work/nu.measure" --schedule "" 2> "$work/empty.err" || rc=$?
test "$rc" -eq 2
grep -q 'at least two entries' "$work/empty.err"

# The weighted translation ray's busemann runs the limit plan taken from
# the lower bound's certified basis under the same settings; against its
# own weights (w3.measure) the limit goes to the assignment solver, and the
# lower bound, -W_p of a zero distance, must print as 0, not -0.
printf 'measure\ndim 2\natoms 3\n0.0 0.0 0.2\n1.0 2.0 0.3\n-1.0 1.0 0.5\n' > "$work/w3.measure"
wassray ray-new translation --measure "$work/w3.measure" --velocity 0.6,0.8 --out "$work/t.rays"
wassray busemann "$work/t.rays" "$work/crlf.measure"
out=$(wassray busemann "$work/t.rays" "$work/w3.measure")
grep -qx 'lower_bound 0' <<< "$out"

# A weighted measure with a repeated atom is coupled to itself: the
# assignment solver decides the zero diagonal.
printf 'measure\ndim 2\natoms 3\n0.0 0.0 0.2\n1.0 2.0 0.5\n0.0 0.0 0.3\n' > "$work/rep.measure"
wassray couple "$work/rep.measure" "$work/rep.measure"

# A ray file whose weights sum to 1.000001 is an input error (exit 2)
# whose message names the sum it got.
printf 'rays\ndim 2\np 2\nentries 1\n0.0 0.0 1.0 0.0 1.000001\n' > "$work/off.rays"
rc=0; wassray ray-validate "$work/off.rays" 2> "$work/off.err" || rc=$?
test "$rc" -eq 2
grep -q 'got 1.000001' "$work/off.err"

# The seed-1 verify report written by --report is the one printed, and has
# the SHA-256 that tests/test_acceptance.py pins, read from that file.
wassray --seed 1 verify all --report "$work/report.txt" > "$work/report.out"
cmp "$work/report.txt" "$work/report.out"
pinned=$(sed -n 's/^ALL_REPORT_SEED_1_SHA256 = "\([0-9a-f]\{64\}\)"$/\1/p' "$root/tests/test_acceptance.py")
test -n "$pinned"
echo "$pinned  $work/report.txt" | sha256sum -c -
