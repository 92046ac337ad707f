#!/bin/sh
# Lists the settable values that nothing but defaults and tests set: the
# config fields, enum variants, presets and builders that are candidates
# to become constants or to go.
#
#   scripts/knob_census.sh           # one line per candidate, then a summary
#
# What is counted, from `crates/<name>/src` outside `#[cfg(test)]` items.
# A config struct is a `pub` or `pub(crate)` struct with named fields
# whose name ends in `Config`, or of which a struct literal is built
# outside its defining crate (in another crate, its tests included, the
# root package or the benchmark): whoever builds it sets its fields.
# Whether a struct has a preset does not matter, so deleting one moves the
# total by one, not by its struct's fields too.
#   - every `pub` or `pub(crate)` field of a config struct;
#   - every variant of a `pub enum`;
#   - every preset: an associated fn of a struct's inherent impl that
#     takes no `self`, returns `Self` and is neither `default` nor `new`
#     (a `new` builds a value from its parts; a preset names a setting);
#   - every builder: a method of a config struct's inherent impl that
#     takes `self` and returns `Self`.
#
# Census before and after the change that deleted the three object
# commands, two object-store errors and `RebuildQos::with_burst`, and
# widened this rule (it used to count `*Config` structs only, and no
# builders): the old rule read 247 settable values (76 fields, 158
# variants, 13 presets) with 4 candidates before and 242 (76, 153, 13)
# with 4 after; this rule reads 356 (132 fields, 158 variants, 47
# presets, 19 builders) with 11 candidates before, `with_burst` among
# them, and 348 (130, 153, 47, 18) with 6 after.
#
# The struct rule then stopped depending on presets (a struct with one
# used to count as a config struct), counted structs built by literal
# outside their crate, and began to read `+=` and `-=` as setting a field.
# At the change that made it so, before its own edits, the preset rule
# read 340 (124 fields, 153 variants, 45 presets, 18 builders) with 4
# candidates, and this rule 397 (182, 153, 45, 17) with 4.
#
# Where they are set: every `.rs` file of the workspace, the root package's
# `src/`, `tests/` and `examples/`, and the benchmark's sources, except the
# defining crate's own test code (its `tests/` files, its `#[cfg(test)]`
# items and the files of its `#[cfg(test)] mod name;` modules).  There:
#   - a field is set where a struct literal of its type names it
#     (`Type { field: .. }`, `Self { field }` inside the type's impl),
#     where `.field =`, `+=` or `-=` assigns it (to whatever type: this is
#     a grep, so a field name two config types share is set for both), or
#     where a builder that assigns it (a method of its type that takes
#     `self` and returns `Self`) is called.  The literal in the type's
#     `Default` impl and the assignments inside its builders do not count;
#   - a literal that gives a field the value its `Default` impl gives it
#     (the same text) does not count, and a literal inside a preset counts
#     only if the preset is called there;
#   - a variant is set where `Enum::Variant` (or `Self::Variant` inside the
#     enum's impl, or `Alias::Variant` after a `use Enum as Alias`) is
#     constructed.  A pattern is not a construction: the variant, with
#     any `(..)` or `{..}` after it, followed by `=>`, `|`, `if` or `=`,
#     or the second argument of `matches!`;
#   - a preset is used where `Type::preset(` is called outside its own body;
#   - a builder is used where `.builder(` is called outside its own body
#     (by name: a name two config structs share is used for both).
#
# A candidate is a field that no site sets, a variant that no site
# constructs, a builder that is unused, or a preset that is unused, whose
# body is `Self::default()`, or whose body is the same as another
# preset's.  Candidates are not
# verdicts: CHANGES.md says why each one that stays is kept.  Strings and
# `//` comments are blanked first; a pattern split over lines or a variant
# built through `use Enum::*` is read as a construction or missed, so the
# list errs towards keeping.
#
# Uses only sh, find, sort and awk; run it from anywhere.

set -eu
cd "$(dirname "$0")/.."

files=$({
    find crates -path '*/target' -prune -o -name '*.rs' -print
    find src tests examples benchmark/src -name '*.rs'
} | LC_ALL=C sort)

# shellcheck disable=SC2086
awk '
function group_of(f, g) {
    if (f ~ /^crates\//) { g = f; sub(/^crates\//, "", g); sub(/\/.*/, "", g); return g }
    return f ~ /^benchmark\// ? "benchmark" : "ossd"
}
function is_ident(t) { return t ~ /^[A-Za-z_][A-Za-z0-9_]*$/ }
function cur_impl(d) { for (d = depth; d > 0; d--) if (d in implat) return implat[d]; return "" }
function cur_trait(d) { for (d = depth; d > 0; d--) if (d in implat) return traitat[d]; return 0 }
function cur_fn(d) { for (d = depth; d > 0; d--) if (d in fnat) return fnat[d]; return "" }

# A counted site: `kind` is field or variant; `key` names the knob;
# `crate` defines it.  Test code of the defining crate is skipped.
function site(kind, key, crate) {
    if (testcode && group == crate) return
    sites[kind, key]++
}
function field_set(ty, f, value, fn, im) {
    if (!((ty, f) in field)) return
    fn = cur_fn(); im = cur_impl()
    if (im == ty && group == cfgcrate[ty]) {
        if (fn == "default") { if (pass == 2) dflt[ty, f] = value; return }
        if ((ty, fn) in builder) return
        if ((ty, fn) in preset) {
            if (pass == 3 && !(testcode)) { pfield[ty, fn, f] = value; pfields[ty, fn] = pfields[ty, fn] " " f }
            return
        }
    }
    if (pass == 3 && !((ty, f) in dflt && value == dflt[ty, f])) site("field", ty "." f, cfgcrate[ty])
}
function assign(f, recv, ty, fn, im) {
    fn = cur_fn(); im = cur_impl()
    if (recv == "self" && (im, fn) in builder) {
        if (pass == 2) { bfields[im, fn] = bfields[im, fn] " " f; bcount[fn]++ }
        return
    }
    if (pass == 3)
        for (ty in cfgcrate) if ((ty, f) in field) site("field", ty "." f, cfgcrate[ty])
}
function variant_site(pattern) {
    if (!pattern && pass == 3) site("variant", vkey, enumcrate[vtype])
    vpend = 0
}

# Every pass: per-file state, each line blanked of strings and comments,
# and whether it is test code.
FNR == 1 {
    group = group_of(FILENAME)
    testfile = (FILENAME in testonly) || FILENAME ~ /(^|\/)tests\//
    until = -1; pending = 0; ldepth = 0
    depth = 0; nest = 0; p1 = p2 = p3 = ""; pendfn = ""; pendimpl = 0; pendfield = ""
    capture = 0; vpend = 0; mparen = 0
    delete implat; delete traitat; delete fnat; delete lit; delete litnest; delete fpos
    instruct = inenum = ""
}
{
    line = $0
    gsub(/r#"([^"]|"[^#])*"#/, "\"\"", line)
    gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
    gsub(/\x27([^\x27\\]|\\.)\x27/, "\x27\x27", line)
    sub(/\/\/.*/, "", line)
    opens = gsub(/\{/, "{", line)
    closes = gsub(/\}/, "}", line)
    # Is this line inside a `#[cfg(test)]` item?
    intest = 0
    if (until >= 0) {
        ldepth += opens - closes; intest = 1
        if (opened || opens > 0) opened = 1
        if ((opened && ldepth <= until) || (!opened && line ~ /;[ \t]*$/)) until = -1
    } else if (pending && line ~ /^[ \t]*#\[/) {
        ldepth += opens - closes; intest = 1
    } else if (pending) {
        pending = 0; intest = 1
        if (line ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [a-z_0-9]+[ \t]*;/) {
            name = line; sub(/.*mod /, "", name); sub(/[ \t]*;.*/, "", name)
            base = FILENAME; sub(/\.rs$/, "", base)
            if (base ~ /\/(lib|mod|main)$/) sub(/\/[a-z]+$/, "", base)
            testonly[base "/" name ".rs"] = 1; testonly[base "/" name "/mod.rs"] = 1
        } else {
            until = ldepth; opened = (opens > 0); ldepth += opens - closes
            if ((opened && ldepth <= until) || (!opened && line ~ /;[ \t]*$/)) until = -1
        }
    } else if (line ~ /^[ \t]*#\[cfg\(test\)\]/) {
        pending = 1; intest = 1
    } else ldepth += opens - closes
    testcode = testfile || intest
}
# Pass 1: the structs that may be config structs, their fields, and the
# pub enums with their variants (top-level items, formatted by rustfmt).
pass == 1 && FILENAME ~ /^crates\/[^\/]+\/src\// && !testcode {
    if (instruct != "") {
        if (line ~ /^}/) instruct = ""
        else if (match(line, /^    pub(\(crate\))? [a-z_0-9]+:/)) {
            f = substr(line, RSTART, RLENGTH); sub(/:$/, "", f); sub(/.* /, "", f)
            field[instruct, f] = 1; order[++nknobs] = "field\t" group "\t" instruct "." f
        }
    } else if (inenum != "") {
        if (line ~ /^}/) inenum = ""
        else if (match(line, /^    [A-Z][A-Za-z0-9_]*/)) {
            v = substr(line, 5, RLENGTH - 4)
            variant[inenum, v] = 1; order[++nknobs] = "variant\t" group "\t" inenum "::" v
        }
    } else if (match(line, /^pub(\(crate\))? struct [A-Za-z0-9_]+ \{/)) {
        instruct = substr(line, RSTART, RLENGTH); sub(/ \{$/, "", instruct); sub(/.* /, "", instruct)
        cfgcrate[instruct] = group
    } else if (match(line, /^pub enum [A-Za-z0-9_]+/)) {
        inenum = substr(line, 10, RLENGTH - 9); enumcrate[inenum] = group
    }
}
pass == 1 { next }
# `use Enum as Alias` (and `pub use`) lets an alias stand for the enum.
pass == 2 && line ~ /^[ \t]*(pub(\([a-z]+\))? )?use / {
    rest = line
    while (match(rest, /[A-Za-z0-9_]+ as [A-Za-z0-9_]+/)) {
        pair = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        split(pair, ab, " as ")
        if (ab[1] in enumcrate) alias[ab[2]] = ab[1]
    }
}

# Passes 2 and 3 read tokens.  Pass 2 learns the builders, presets and
# defaults; pass 3 counts the sites.
{
    s = line
    while (s != "") {
        if (match(s, /^[ \t]+/)) { s = substr(s, RLENGTH + 1); continue }
        if (match(s, /^[A-Za-z_][A-Za-z0-9_]*/) || match(s, /^[0-9][A-Za-z0-9_]*/) ||
            match(s, /^(::|->|=>|\.\.=|\.\.|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|\/=)/)) tok = substr(s, 1, RLENGTH)
        else { tok = substr(s, 1, 1); RLENGTH = 1 }
        s = substr(s, RLENGTH + 1)
        token(tok)
        p3 = p2; p2 = p1; p1 = tok
    }
}
function token(t, ty, fn, im, d, f, fa, n, k, ks) {
    if (pass == 2 && !testcode && (cur_impl(), cur_fn()) in preset) pbody[cur_impl(), cur_fn()] = pbody[cur_impl(), cur_fn()] t
    # A variant waits for the token after it (and after its `(..)` or
    # `{..}`) to tell a pattern from a construction.
    if (vpend == 1) {
        if (t == "(" || t == "{") { vpend = 2; vnest = nest }
        else variant_site(t == "=>" || t == "|" || t == "if" || t == "=" || vmatch)
    } else if (vpend == 3) variant_site(t == "=>" || t == "|" || t == "if" || t == "=" || vmatch)
    if (t == "(" || t == "[" || t == "{") nest++
    if (t == ")" || t == "]" || t == "}") { nest--; if (vpend == 2 && nest == vnest) vpend = 3 }
    if (t == "(" && p1 == "!" && p2 == "matches") { mparen = nest; mcomma = 0 }
    if (t == "," && mparen && nest == mparen) mcomma = 1
    if (t == ")" && mparen && nest < mparen) mparen = 0

    # A field named in a literal: shorthand, or `field: value` up to the
    # next comma or brace at the nesting of the literal.
    if (pendfield != "") {
        f = pendfield; pendfield = ""
        if (t == ":") { capture = 1; capnest = nest; captext = ""; capty = lit[depth]; capf = f; return }
        if (t == "," || t == "}") field_set(lit[depth], f, f)
    }
    if (capture && ((t == "," && nest == capnest) || (t == "}" && nest < capnest))) {
        capture = 0; field_set(capty, capf, captext)
    } else if (capture) captext = captext t

    if (t == "impl" && pendfn == "") { pendimpl = 1; implty = ""; implangle = 0; implfor = 0; return }
    if (pendimpl && t != "{") {
        if (t == "<") implangle++
        else if (t == ">") implangle--
        else if (t == "for") { implty = ""; implfor = 1 }
        else if (is_ident(t) && implangle == 0 && implty == "") implty = t
        return
    }
    if (t == "fn") { pendfn = "?"; return }
    if (pendfn == "?") { pendfn = is_ident(t) ? t : ""; recv = ""; ret = ""; params = 0; return }
    if (pendfn != "" && pendfn != "?") {
        if (t == "(" && params == 0) { params = 1; return }
        if (params == 1) { recv = (t == "self" || t == "mut" || t == "&") ? "self" : "none"; params = 2 }
        if (p1 == "->" && ret == "") ret = t
        if (t == ";") { pendfn = ""; return }
    }
    if (t == "{") {
        depth++
        if (pendimpl) { implat[depth] = implty; traitat[depth] = implfor; pendimpl = 0; return }
        if (pendfn != "" && pendfn != "?") {
            fnat[depth] = pendfn; im = cur_impl()
            if (pass == 2 && im in cfgcrate && group == cfgcrate[im] && !testcode && !cur_trait() && (ret == "Self" || ret == im)) {
                if (recv == "self") {
                    builder[im, pendfn] = 1; bname[pendfn] = 1
                    order[++nknobs] = "builder\t" group "\t" im "::" pendfn
                } else if (pendfn != "default" && pendfn != "new" && recv == "none") {
                    preset[im, pendfn] = 1; presets[++npresets] = im SUBSEP pendfn
                    order[++nknobs] = "preset\t" group "\t" im "::" pendfn
                }
            }
            pendfn = ""; return
        }
        ty = p1; if (ty == "Self") ty = cur_impl()
        if (ty in cfgcrate && p2 !~ /^(struct|enum|union|trait|impl|for|->|mod)$/) {
            lit[depth] = ty; litnest[depth] = nest; fpos[depth] = 1
            if (group != cfgcrate[ty]) built[ty] = 1
        }
        return
    }
    if (t == "}") {
        delete implat[depth]; delete fnat[depth]; delete lit[depth]; delete fpos[depth]
        depth--; return
    }
    fn = cur_fn(); im = cur_impl()
    if (t == "," && (depth in lit) && nest == litnest[depth]) { fpos[depth] = 1; return }
    if (t == ".." && (depth in lit)) { fpos[depth] = 0; return }
    if ((depth in lit) && fpos[depth] && is_ident(t)) { fpos[depth] = 0; pendfield = t; return }
    if ((t == "=" || t == "+=" || t == "-=") && is_ident(p1) && p2 == ".") { assign(p1, p3); return }
    if (pass != 3) return
    if (t == "(" && p2 == "." && (p1 in bcount))
        for (k in bfields) {
            split(k, ks, SUBSEP)
            if (ks[2] != p1) continue
            n = split(bfields[k], fa, " ")
            for (d = 1; d <= n; d++) site("field", ks[1] "." fa[d], cfgcrate[ks[1]])
        }
    if (t == "(" && p2 == "." && (p1 in bname))
        for (ty in cfgcrate)
            if ((ty, p1) in builder && !(im == ty && fn == p1) && !(testcode && group == cfgcrate[ty])) bused[ty, p1] = 1
    if (t == "(" && p2 == "::") {
        ty = p3; if (ty == "Self") ty = im
        if ((ty, p1) in preset && !(im == ty && fn == p1) && !(testcode && group == cfgcrate[ty])) used[ty, p1] = 1
    }
    if (p1 == "::" && is_ident(t)) {
        ty = p2; if (ty == "Self") ty = im; if (ty in alias) ty = alias[ty]
        if ((ty, t) in variant) { vpend = 1; vtype = ty; vkey = ty "::" t; vmatch = (mparen && mcomma) }
    }
}
END {
    # The literal of a preset sets its fields where it is used and differs
    # from the default.
    for (k in pfields) {
        split(k, ks, SUBSEP)
        if (!((ks[1], ks[2]) in used)) continue
        n = split(pfields[k], fa, " ")
        for (d = 1; d <= n; d++)
            if (pfield[ks[1], ks[2], fa[d]] != dflt[ks[1], fa[d]]) sites["field", ks[1] "." fa[d]]++
    }
    total = 0; candidates = 0
    for (i = 1; i <= nknobs; i++) {
        split(order[i], part, "\t"); kind = part[1]; key = part[3]
        if (kind == "field" || kind == "builder") {
            ty = key; sub(/[.:].*/, "", ty)
            if (ty !~ /Config$/ && !(ty in built)) continue
        }
        total++; kinds[kind]++
        why = ""
        if (kind == "field" && !(("field", key) in sites)) why = "set only by its default, presets or tests"
        if (kind == "variant" && !(("variant", key) in sites)) why = "constructed only in tests"
        if (kind == "builder") { split(key, kp, "::"); if (!((kp[1], kp[2]) in bused)) why = "called only in tests" }
        if (kind == "preset") {
            split(key, kp, "::")
            body = pbody[kp[1], kp[2]]
            if (!((kp[1], kp[2]) in used)) why = "called only in tests"
            else if (body == "Self::default()}" || body == kp[1] "::default()}") why = "returns the default"
            else for (j = 1; j <= npresets; j++) {
                split(presets[j], other, SUBSEP)
                if (other[1] == kp[1] && other[2] != kp[2] && pbody[other[1], other[2]] == body) why = "the same as " other[1] "::" other[2]
            }
        }
        if (why != "") { printf "%s\t%s\t%s\t%s\n", kind, part[2], key, why; candidates++ }
    }
    printf "%d settable values (%d config fields, %d enum variants, %d presets, %d builders); %d candidates\n", total, kinds["field"], kinds["variant"], kinds["preset"], kinds["builder"], candidates
}
' pass=1 $files pass=2 $files pass=3 $files
