#!/bin/sh
# Counts the lines of Rust per crate, split by what they are for.
#
#   scripts/loc.sh            # one row per crate, then the totals
#
# Every line of every `.rs` file under `crates/<name>/`, the root package
# (`src/`, `tests/`, `examples/`) and `benchmark/src` lands in exactly one
# column, blank lines and comments included, so a row sums to `wc -l` of
# its files (the script checks that per file and fails if one does not):
#
#   prod     everything not counted in another column;
#   testmod  `#[cfg(test)] mod` items: the attribute, any attributes
#            after it, and the module with its braces; for
#            `#[cfg(test)] mod name;` the whole of the module's file.
#            Other `#[cfg(test)]` items (a helper fn, an impl, a `use`)
#            stay in prod;
#   support  the test oracles and references that pin code to a simpler
#            or earlier version of itself (ROADMAP item 20's list, named
#            in SUPPORT below), whether or not they are compiled into the
#            library;
#   tests    files under a `tests/` directory that are not support.
#
# The examples are their own row, counted as prod.  Strings, `'{'`/`'}'`
# and `//` comments are blanked before braces are counted; a brace inside
# a string that spans lines would mislead the count.
#
# Uses only sh, find, sort, xargs, wc and awk; run it from anywhere.

set -eu
cd "$(dirname "$0")/.."

SUPPORT="crates/sim/src/engine/reference.rs
crates/ftl/src/pagemap/oracle.rs
crates/ftl/src/indexcheck.rs
crates/mapcache/tests/reference/mod.rs
crates/fleet/src/parity/reference.rs
crates/flash/tests/bitmap_differential.rs
crates/ssd/src/device/oracle.rs
crates/ssd/src/controller/oracle.rs"

tmp=${TMPDIR:-/tmp}/loc.$$
trap 'rm -f "$tmp"' EXIT

# One line per file: path, group, prod, testmod, support, tests, wc -l.
{
    find crates -path '*/target' -prune -o -name '*.rs' -print
    find src tests examples benchmark/src -name '*.rs'
} | LC_ALL=C sort | xargs awk -v support="$SUPPORT" '
    BEGIN { n = split(support, s, "\n"); for (i = 1; i <= n; i++) supp[s[i]] = 1 }
    function flush() {
        if (file == "") return
        print file, group, c["prod"], c["testmod"], c["support"], c["tests"], lines
    }
    function count(kind) { c[kind]++; lines++ }
    FNR == 1 {
        flush()
        file = FILENAME; lines = 0
        c["prod"] = c["testmod"] = c["support"] = c["tests"] = 0
        group = file
        if (file ~ /^crates\//) { sub(/^crates\//, "", group); sub(/\/.*/, "", group) }
        else if (file ~ /^benchmark\//) group = "benchmark"
        else if (file ~ /^examples\//) group = "examples"
        else group = "ossd"
        whole = ""
        if (file in supp) whole = "support"
        else if (file in testonly) whole = "testmod"
        else if (file ~ /(^|\/)tests\//) whole = "tests"
        depth = 0; pending = 0; held = 0; until = -1
    }
    whole != "" { count(whole); next }
    {
        line = $0
        gsub(/r#"([^"]|"[^#])*"#/, "\"\"", line)
        gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
        gsub(/\x27[{}]\x27/, "", line)
        sub(/\/\/.*/, "", line)
        opens = gsub(/\{/, "{", line)
        closes = gsub(/\}/, "}", line)
    }
    # Inside a `#[cfg(test)] mod` item: count until its braces balance.
    until >= 0 {
        depth += opens - closes
        count("testmod")
        if (depth <= until) until = -1
        next
    }
    # After `#[cfg(test)]`: hold the attribute lines until the item shows
    # whether it is a module.
    pending && line ~ /^[ \t]*#\[/ { held++; lines++; depth += opens - closes; next }
    pending {
        pending = 0
        if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+[ \t]*;/) {
            name = line
            sub(/.*mod /, "", name); sub(/[ \t]*;.*/, "", name)
            base = file; sub(/\.rs$/, "", base)
            if (base ~ /\/(lib|mod|main)$/) sub(/\/[a-z]+$/, "", base)
            testonly[base "/" name ".rs"] = 1
            testonly[base "/" name "/mod.rs"] = 1
            c["testmod"] += held; count("testmod")
            next
        }
        if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+/) {
            c["testmod"] += held
            until = depth
            depth += opens - closes
            count("testmod")
            if (depth <= until) until = -1
            next
        }
        c["prod"] += held
    }
    line ~ /^[ \t]*#\[cfg\(test\)\]/ { pending = 1; held = 1; lines++; next }
    { depth += opens - closes; count("prod") }
    END { flush() }
' > "$tmp"

# The columns of every file must add up to its `wc -l`.
bad=$(awk '$3 + $4 + $5 + $6 != $7 { print $1 }' "$tmp")
wrong=$(awk '{ print $1, $NF }' "$tmp" | while read -r f n; do
    [ "$(wc -l < "$f")" -eq "$n" ] || echo "$f"
done)
if [ -n "$bad$wrong" ]; then
    echo "loc.sh: columns do not sum to wc -l for: $bad $wrong" >&2
    exit 1
fi

awk '
    {
        n = NF; g = $2
        if (!(g in seen)) { seen[g] = 1; order[++groups] = g }
        for (k = 1; k <= 5; k++) { v[g, k] += $(n - 5 + k); if ($1 ~ /^crates\//) cr[k] += $(n - 5 + k); all[k] += $(n - 5 + k) }
    }
    END {
        printf "%-14s %8s %8s %8s %8s %8s\n", "crate", "prod", "testmod", "support", "tests", "total"
        for (i = 1; i <= groups; i++) {
            g = order[i]
            printf "%-14s %8d %8d %8d %8d %8d\n", g, v[g, 1], v[g, 2], v[g, 3], v[g, 4], v[g, 5]
        }
        printf "%-14s %8d %8d %8d %8d %8d\n", "crates/ total", cr[1], cr[2], cr[3], cr[4], cr[5]
        printf "%-14s %8d %8d %8d %8d %8d\n", "all", all[1], all[2], all[3], all[4], all[5]
    }
' "$tmp"
