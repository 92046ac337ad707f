#!/bin/sh
# Lists, per library crate, the exported `pub` items that nothing outside
# the crate names.
#
#   scripts/pub_census.sh            # one line per item, then a summary
#
# An item is a `pub` fn, struct, enum, trait, type alias, const, static,
# union or module under `crates/<name>/src` (enum variants and `pub use`
# re-exports are not counted; `pub(crate)` and narrower are not `pub`).
# Fields are counted in one place: a ledger, a `pub` struct whose name
# ends in `Stats`, `Counters` or `Summary`, has each of its `pub` fields
# reported like an item, so a counter that only its own crate reads (a
# second count, or one kept for a number nothing prints) shows here.
# Code under `#[cfg(test)]` is skipped, including the files of
# `#[cfg(test)] mod name;` modules.  "Outside" is every other crate's
# source, every crate's integration tests (the crate's own included),
# the root package's `src/`, `tests/` and `examples/`, the benchmark's
# sources and both READMEs.  An item is reported when its name occurs
# there as no whole word at all.  That is a grep, not name resolution:
# a method called through another crate's value (`fleet.scrub().is_clean()`)
# counts as named, and so does a name that another crate merely mentions
# in a comment, so the list errs towards keeping items public.
#
# Uses only sh, find, grep, sort and awk; run it from anywhere.

set -eu
cd "$(dirname "$0")/.."

total=0
fields=0
crates=0
for dir in crates/*/; do
    dir=${dir%/}
    crate=${dir#crates/}
    # Every whole word named outside this crate.
    outside=$(find crates -path "$dir/src" -prune -o -name '*.rs' -print |
        grep -v '/target/' || true)
    outside="$outside $(find src tests examples benchmark -name '*.rs' -not -path '*/target/*') README.md benchmark/README.md"
    # shellcheck disable=SC2086
    grep -ohE '[A-Za-z_][A-Za-z0-9_]*' $outside | sort -u > "${TMPDIR:-/tmp}/pub_census_words.$$"
    found=$(find "$dir/src" -name '*.rs' | LC_ALL=C sort | xargs awk -v crate="$crate" '
        # Files of `#[cfg(test)] mod name;` modules, seen in an earlier file
        # (a parent sorts before its children), are test-only.
        FNR == 1 { testfile = (FILENAME in testonly); depth = 0; pending = 0; until = -1; ledger = "" }
        testfile { next }
        {
            line = $0
            gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
            gsub(/\x27[{}]\x27/, "", line)
            sub(/\/\/.*/, "", line)
            opens = gsub(/\{/, "{", line)
            closes = gsub(/\}/, "}", line)
        }
        # Inside a `#[cfg(test)]` item: skip until its braces balance.
        until >= 0 {
            depth += opens - closes
            if (opened || opens > 0) opened = 1
            if ((opened && depth <= until) || (!opened && line ~ /;[ \t]*$/)) until = -1
            next
        }
        pending && line ~ /^[ \t]*#\[/ { depth += opens - closes; next }
        pending {
            pending = 0
            if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+;/) {
                name = line
                sub(/.*mod /, "", name); sub(/;.*/, "", name)
                base = FILENAME; sub(/\.rs$/, "", base)
                if (base ~ /\/(lib|mod)$/) sub(/\/[a-z]+$/, "", base)
                testonly[base "/" name ".rs"] = 1
                next
            }
            until = depth; opened = (opens > 0)
            depth += opens - closes
            if ((opened && depth <= until) || (!opened && line ~ /;[ \t]*$/)) until = -1
            next
        }
        line ~ /^[ \t]*#\[cfg\(test\)\]/ { pending = 1; next }
        {
            if (match(line, /^[ \t]*pub (const |async |unsafe )*(fn|struct|enum|trait|type|const|static|union|mod) +[A-Za-z_][A-Za-z0-9_]*/)) {
                item = substr(line, RSTART, RLENGTH)
                sub(/^[ \t]*pub (const |async |unsafe )*/, "", item)
                print crate "\t" FILENAME ":" FNR "\t" item
                # A ledger with named fields: its `pub` fields follow, one
                # level deeper, until its braces balance.
                if (item ~ /^struct [A-Za-z0-9_]*(Stats|Counters|Summary)$/ && opens > closes) {
                    ledger = item; sub(/^struct /, "", ledger); ledger_depth = depth
                }
            } else if (ledger != "" && match(line, /^[ \t]*pub [a-z_][a-z0-9_]*:/)) {
                field = substr(line, RSTART, RLENGTH)
                sub(/^[ \t]*pub /, "", field); sub(/:$/, "", field)
                print crate "\t" FILENAME ":" FNR "\tfield " ledger "." field
            }
            depth += opens - closes
            if (ledger != "" && depth <= ledger_depth) ledger = ""
        }
    ' | awk -F '\t' -v words="${TMPDIR:-/tmp}/pub_census_words.$$" '
        BEGIN { while ((getline w < words) > 0) named[w] = 1 }
        { n = split($3, part, / +/); name = part[n]; sub(/.*\./, "", name); if (!(name in named)) print }
    ')
    rm -f "${TMPDIR:-/tmp}/pub_census_words.$$"
    if [ -n "$found" ]; then
        printf '%s\n' "$found"
        total=$((total + $(printf '%s\n' "$found" | wc -l)))
        fields=$((fields + $(printf '%s\n' "$found" | grep -c '	field ' || true)))
        crates=$((crates + 1))
    fi
done
echo "$((total - fields)) pub items and $fields ledger fields named nowhere outside their crate, in $crates crates"
