#!/bin/sh
# Regenerates every archived artefact in this directory and compares it,
# byte for byte, with the checked-in copy (`.gz` files by their
# decompressed bytes). `parallel_speedup.txt` is wall-clock and exempt.
#
#   cargo build --release -p nifdy-harness --bin nifdy-experiments
#   results/check.sh [path/to/nifdy-experiments]
#
# Exits 1 on the first kind of trouble it finds: a command that fails, an
# artefact that differs, or an archived file no command below produces.
set -u
bin=${1:-target/release/nifdy-experiments}
dir=$(dirname "$0")
tmp=${TMPDIR:-/tmp}/nifdy-results.$$
mkdir -p "$tmp" || exit 1
trap 'rm -rf "$tmp"' EXIT
status=0

# <file taking stdout> <arguments>; side outputs go to $tmp under the
# archived name (less `.gz`).
while read -r file args; do
    # $args is a word list on purpose.
    # shellcheck disable=SC2086
    if ! "$bin" $args >"$tmp/$file" 2>"$tmp/stderr"; then
        echo "FAIL  $file: nifdy-experiments $args"
        cat "$tmp/stderr"
        status=1
    fi
done <<EOF
table3.txt table3
fig2_quick.txt fig2 --quick
fig3_quick.txt fig3 --quick
fig4_quick.txt fig4 --quick
fig5_full.txt fig5 --full
fig6_full.txt fig6 --full
fig7_quick.txt fig7 --quick
fig8_quick.txt fig8 --quick
fig9_full.txt fig9 --full
ext_adaptive_quick.txt ext:adaptive --quick
ext_loadsweep_quick.txt ext:loadsweep --quick
ext_lossy_quick.txt ext:lossy --quick
ext_lossy_traced_smoke.txt ext:lossy --smoke --trace-out $tmp/ext_lossy_trace_smoke.json --trace-jsonl $tmp/ext_lossy_trace_smoke.jsonl --metrics-out $tmp/ext_lossy_metrics_smoke.json
wire_loopback.txt wire:loopback --quick
wire_chaos_quick.txt wire:chaos --quick --metrics-out $tmp/wire_chaos_quick.json
ablations_smoke.txt ablations --smoke
EOF
rm -f "$tmp/stderr"

for path in "$dir"/*; do
    file=${path##*/}
    fresh=$tmp/${file%.gz}
    case $file in
    README.md | check.sh | parallel_speedup.txt) continue ;;
    esac
    if [ ! -f "$fresh" ]; then
        echo "FAIL  $file: no command in check.sh produces it"
        status=1
    elif case $file in
        *.gz) zcat "$path" | cmp -s - "$fresh" ;;
        *) cmp -s "$path" "$fresh" ;;
        esac then
        echo "ok    $file"
    else
        echo "DIFF  $file"
        case $file in *.txt) diff "$path" "$fresh" | head -n 20 ;; esac
        status=1
    fi
done
exit $status
