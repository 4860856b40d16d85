#!/usr/bin/env bash
# Soak smoke test: exercise the resumable soak harness end to end on the
# quick schedule and require its three determinism guarantees:
#
#   1. the JSON document is byte-identical at -parallel 1 and -parallel 8,
#   2. a soak stopped mid-schedule and resumed from its journal produces a
#      JSON document byte-identical to an uninterrupted run's,
#   3. the text report matches the checked-in golden.
#
#   REGEN=1 ./scripts/soak_smoke.sh   # refresh testdata/soak_smoke.golden
set -euo pipefail
cd "$(dirname "$0")/.."

golden=testdata/soak_smoke.golden
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/protolat" ./cmd/protolat

"$tmp/protolat" -soak -seed 11 -parallel 1 -json "$tmp/p1.json" > "$tmp/report.txt"
"$tmp/protolat" -soak -seed 11 -parallel 8 -json "$tmp/p8.json" > /dev/null

cmp -s "$tmp/p1.json" "$tmp/p8.json" || {
    echo "FAIL: soak document differs between -parallel 1 and -parallel 8" >&2
    exit 1
}

"$tmp/protolat" -soak -seed 11 -checkpoint "$tmp/soak.journal" -soakstop 20 \
    > /dev/null
# The journal exists, so the second run resumes from it.
"$tmp/protolat" -soak -seed 11 -checkpoint "$tmp/soak.journal" \
    -parallel 8 -json "$tmp/resumed.json" > /dev/null

cmp -s "$tmp/p1.json" "$tmp/resumed.json" || {
    echo "FAIL: resumed soak document differs from uninterrupted run" >&2
    exit 1
}

if [[ "${REGEN:-0}" = "1" ]]; then
    mkdir -p testdata
    cp "$tmp/report.txt" "$golden"
    echo "regenerated $golden"
    exit 0
fi

diff -u "$golden" "$tmp/report.txt" || {
    echo "FAIL: soak report drifted from $golden (REGEN=1 to accept)" >&2
    exit 1
}
echo "soak smoke OK: parallel-identical, resume-identical, matching golden"
