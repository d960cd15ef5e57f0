#!/bin/sh
# Prints the workspace's two line counts over crates/*/src, leaving out
# driver/equivalence.rs (a #[cfg(test)] module of its own):
#   source      every line of every file, inline test modules included;
#   production  each file up to its first #[cfg(test)] line.
# Run from anywhere: scripts/line-count.sh
set -eu
cd "$(dirname "$0")/.."
files=$(find crates/*/src -name '*.rs' ! -path '*driver/equivalence.rs' | sort)
# shellcheck disable=SC2086 # one path per word: no file name has a space
source=$(cat $files | wc -l)
# shellcheck disable=SC2086
production=$(awk 'FNR == 1 { cut = 0 } /#\[cfg\(test\)\]/ { cut = 1 } !cut { n++ } END { print n }' $files)
echo "source lines:     $source"
echo "production lines: $production"
