#!/bin/sh
# Alternating parent/change pairs of the repo benchmark, the way the
# benchmark gate compares two commits.
#
#   scripts/bench-pairs.sh PARENT CHANGE PAIRS WORKLOAD [SEED0]
#
# PARENT and CHANGE are any commits of this repository (`git stash create`
# names an uncommitted tree). Each is exported with `git archive` and its
# `nifdy-bench` built at paths of equal length, `$TMPDIR/nifdy-pairs/pp/abcdef`
# and `.../cc/abcdef` (TMPDIR defaults to /tmp), because `Plan::peers_of`'s
# address mod 64 moves `udp-*` `setup_s` by itself; both offsets are printed.
# Pair i (from 0) runs seed SEED0 + i (default SEED0 = 1) on both sides,
# parent first on even pairs and change first on odd ones, each a
# `--seconds 15 --trace 0` run. Per side it prints the median and quartiles
# of the four end-to-end metrics, and how many pairs the change won on each.
# Pin both sides by running the script under `taskset`. Nothing is written
# inside the repository.
set -eu
[ $# -ge 4 ] || { sed -n 5p "$0" >&2; exit 2; }
parent=$1 change=$2 pairs=$3 workload=$4 seed0=${5:-1}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
root=${TMPDIR:-/tmp}/nifdy-pairs
out=$root/runs-$workload-$$
mkdir -p "$out"

# build SIDE REV: exports REV to $root/SIDE/abcdef (unless already there)
# and builds the benchmark in it.
build() {
    dir=$root/$1/abcdef
    sha=$(git -C "$repo" rev-parse "$2^{commit}")
    if [ "$(cat "$dir/.rev" 2>/dev/null)" != "$sha" ]; then
        rm -rf "$dir" && mkdir -p "$dir"
        git -C "$repo" archive "$sha" | tar -x -C "$dir"
        echo "$sha" >"$dir/.rev"
    fi
    cargo build --release --offline -q --manifest-path "$dir/nifdy-bench/Cargo.toml"
    addr=$(nm -C "$dir/nifdy-bench/target/release/nifdy-bench" | awk '/Plan::peers_of/ {print $1; exit}')
    echo "$1 ${sha%"${sha#???????}"}: Plan::peers_of at 0x$addr, mod 64 = $((0x$addr % 64))"
}
build pp "$parent"
build cc "$change"

# run SIDE SEED: one contract run, its last line appended to SIDE.jsonl.
run() {
    "$root/$1/abcdef/nifdy-bench/target/release/nifdy-bench" \
        --workload "$workload" --seed "$2" --seconds 15 --trace 0 | tail -n 1 >>"$out/$1.jsonl"
}
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 0 ]; then run pp "$seed"; run cc "$seed"; else run cc "$seed"; run pp "$seed"; fi
    i=$((i + 1))
done

python3 - "$out/pp.jsonl" "$out/cc.jsonl" "$workload" <<'EOF'
import json, statistics, sys
sides = [[json.loads(l) for l in open(p)] for p in sys.argv[1:3]]
better = {"setup_s": min, "delivered_per_s": max, "latency_p50_us": min, "peak_rss_mb": min}
print(f"{sys.argv[3]}: {len(sides[0])} pairs")
for name, pick in better.items():
    vals = [[r["metrics"][name]["value"] for r in runs] for runs in sides]
    for side, v in zip(("parent", "change"), vals):
        q = statistics.quantiles(v, n=4) if len(v) > 1 else v * 3
        print(f"  {name:16} {side:6} median {q[1]:.6g}  q1 {q[0]:.6g}  q3 {q[2]:.6g}")
    wins = sum(c != p and pick(c, p) == c for p, c in zip(*vals))
    print(f"  {name:16} change wins {wins}/{len(vals[0])}")
for side, runs in zip(("parent", "change"), sides):
    failed = sum(r["failed"] for r in runs)
    print(f"  {side}: failed {failed} of {sum(r['attempted'] for r in runs)}, "
          f"all correct: {all(r['correct'] for r in runs)}")
EOF
echo "raw runs: $out"
