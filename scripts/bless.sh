#!/usr/bin/env bash
# Regenerates every committed output under tests/golden/:
#
#   quick.txt, quick.csv    stdout of `ossd-exp all --quick` and `--quick --csv`
#   paper.txt, paper.csv    stdout of `ossd-exp all` and `all --csv` (~25 s each)
#   quick_artifacts.txt,    one `<file> <length> <FNV-1a 64>` line per artifact
#   paper_artifacts.txt     the run wrote, in the order it wrote them
#   examples/<name>.txt     stdout of every example
#
# tests/ossd_exp_golden.rs compares against them (paper scale under
# --ignored).  Usage: scripts/bless.sh && git diff --stat tests/golden
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
golden=$root/tests/golden
cd "$root"
cargo build --release --quiet
cargo build --release --quiet --examples

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
rustc -O --edition 2021 -o "$work/fnv64" scripts/fnv64.rs

mkdir -p "$golden/examples"
for scale in quick paper; do
    flags=()
    [ "$scale" = quick ] && flags=(--quick)
    mkdir -p "$work/$scale"
    cd "$work/$scale"
    "$root/target/release/ossd-exp" all "${flags[@]}" > "$golden/$scale.txt"
    "$root/target/release/ossd-exp" all "${flags[@]}" --csv > "$golden/$scale.csv"
    mapfile -t artifacts < <(sed -n 's/^wrote \([^ ]*\) .*/\1/p' "$golden/$scale.txt")
    "$work/fnv64" "${artifacts[@]}" > "$golden/${scale}_artifacts.txt"
done

rm -f "$golden"/examples/*.txt
cd "$work"
for example in "$root"/examples/*.rs; do
    name=$(basename "$example" .rs)
    "$root/target/release/examples/$name" > "$golden/examples/$name.txt"
done
