#!/usr/bin/env bash
# Public items of the workspace's library crates that no other crate names.
#
#   scripts/pub_surface.sh            # print every such item
#   scripts/pub_surface.sh --check    # fail if one is not in scripts/pub_surface.allow
#
# An item is a `pub` fn, method, struct, enum, trait, type alias, const,
# static or module declared in the non-test code of a library crate under
# `crates/*/src` (each file up to its first `#[cfg(test)]`; `tests.rs`
# files and `tests/` directories are test code). It is printed as
# `<crate> <name> <file>:<line>` when its name appears as a word in no
# `.rs` file outside that library: not in another crate, an integration
# test, an example, a binary target (`src/main.rs`, `src/bin/`) nor the
# benchmark. Comments count as naming an item, because an intra-doc link
# from another crate needs the item public. A common name (`new`, `len`)
# always appears somewhere, so the check never flags it: it is a floor on
# what can be demoted, not a proof that the rest is needed.
#
# Every printed item should be `pub(crate)` or gone. The allow list names
# the exceptions, one `<crate> <name>` per line with a reason after `#`:
# items the compiler needs public (a type in the signature of a function
# another crate calls) and items kept on purpose.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
allow=scripts/pub_surface.allow

# All workspace sources, without build output.
mapfile -t all_rs < <(find . -name '*.rs' -not -path '*/target/*' -not -path './.git/*' | sort)

is_lib_file() { # <crate dir> <path>: part of the crate's library target?
    case $2 in
        ./$1/src/main.rs | ./$1/src/bin/*) return 1 ;;
        ./$1/src/*) return 0 ;;
        *) return 1 ;;
    esac
}

found=$(
    for dir in crates/*/; do
        dir=${dir%/}
        [[ -f $dir/src/lib.rs ]] || continue
        crate=$(basename "$dir")
        lib=() outside=()
        for f in "${all_rs[@]}"; do
            if is_lib_file "$dir" "$f"; then lib+=("$f"); else outside+=("$f"); fi
        done
        # Words named outside the library, one per line.
        words=$(grep -ohE '[A-Za-z_][A-Za-z0-9_]*' "${outside[@]}" | sort -u)
        printf '%s\n' "${lib[@]}" | grep -vE '/tests(\.rs|/)' | xargs awk '
            /#!?\[cfg\(test\)\]/ { nextfile }
            match($0, /^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*(fn|struct|enum|trait|type|const|static|mod|union)[ \t]+[A-Za-z_][A-Za-z0-9_]*/) {
                decl = substr($0, RSTART, RLENGTH)
                n = split(decl, parts, /[ \t]+/)
                print parts[n], substr(FILENAME, 3) ":" FNR
            }' |
            awk -v crate="$crate" 'NR == FNR { seen[$1] = 1; next } !($1 in seen) { print crate, $1, $2 }' \
                <(printf '%s\n' "$words") -
    done
)

if [[ ${1:-} != --check ]]; then
    [[ -z $found ]] || printf '%s\n' "$found"
    exit 0
fi

unlisted=$(
    [[ -z $found ]] || printf '%s\n' "$found" |
        awk 'NR == FNR { sub(/#.*/, ""); if (NF) ok[$1 " " $2] = 1; next } !(($1 " " $2) in ok)' "$allow" -
)
if [[ -n $unlisted ]]; then
    printf '%s\n' "$unlisted"
    echo "pub items named nowhere outside their crate: make them pub(crate), delete them, or list them in $allow with a reason"
    exit 1
fi
