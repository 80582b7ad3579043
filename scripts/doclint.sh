#!/bin/sh
# Fails when README.md, DESIGN.md or the doc comments of the commands
# (cmd/epoch, cmd/serve and cmd/benchprep main.go, whose usage lines
# are `go run` commands) cite something the tree does not have: a repo
# path quoted in backticks (internal/…, cmd/…, scripts/…, *.go, *.md),
# a `go run ./cmd/<x>` or `go run -C <dir>` target, a -flag on such a
# command that the target's main.go does not define, a `go run` of
# cmd/epoch or cmd/serve without -data (only -probe and -h run without
# a dataset), or a Test…/Benchmark…/Fuzz… name with no `func <Name>(`
# in any .go file.
# scripts/check.sh (which CI runs) runs it; arguments, given as absolute
# paths or relative to the repo root, replace the five default files.
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- README.md DESIGN.md cmd/epoch/main.go cmd/serve/main.go cmd/benchprep/main.go
bad=0
miss() {
    echo "doclint: $1" >&2
    bad=1
}

# exists P: P names a file or directory, as written, under internal/
# (DESIGN.md says core/worker.go), or — a bare file name — anywhere.
exists() {
    [ -e "$1" ] || [ -e "internal/$1" ] && return 0
    case $1 in
    */*) return 1 ;;
    esac
    [ -n "$(find . -path ./.git -prune -o -name "$1" -print | head -n 1)" ]
}

# literal P: P with ./ and :line dropped, and — when it holds a
# placeholder or glob — cut back to the directory before it
# (cmd/<name>/main.go → cmd/).
literal() {
    p=${1#./}
    p=${p%%:[0-9]*}
    case $p in
    *[\<*{[]*)
        p=${p%%[\<*{[]*}
        p=${p%"${p##*/}"}
        ;;
    esac
    printf '%s\n' "$p"
}

for doc; do
    [ -f "$doc" ] || miss "$doc is missing"
done

# Word splitting on newlines only; no globbing of what we read.
set -f
IFS='
'
for hit in $(grep -Ho '`[^` ]*`' "$@"); do
    file=${hit%%:*}
    span=${hit#*:}
    span=${span#\`}
    span=${span%\`}
    case $span in
    internal/* | cmd/* | ./cmd/* | scripts/* | *.go | *.go:[0-9]* | *.md) ;;
    *) continue ;;
    esac
    p=$(literal "$span")
    [ -z "$p" ] && continue
    exists "$p" || miss "$file cites \`$span\`, which does not exist"
done

for hit in $(grep -EHo 'go run (-C [^ `]+|[^ `]+)' "$@"); do
    file=${hit%%:*}
    target=${hit#*go run }
    target=${target#-C }
    case $target in
    -*) continue ;;
    esac
    p=$(literal "$target")
    [ -z "$p" ] || [ -d "$p" ] || miss "$file: \`go run\` target $target does not exist"
done

# Flags: on every `go run ./cmd/<x>` or `go run -C <dir> .` command —
# its line joined with the lines a trailing \ continues onto, cut at a
# backtick, `#`, `|`, `;`, `&` or `>` — each -flag after the target
# must be defined in the target's main.go (fs.String("flag", …) and
# the like), and a run of cmd/epoch or cmd/serve must pass -data,
# -probe or -h (awk prints the pseudo-flag "<no -data>:LINE" for one
# that passes none).
flags=$(awk '
{
    line = held $0
    held = ""
    if (line ~ /\\$/) {
        held = substr(line, 1, length(line) - 1) " "
        next
    }
    while ((i = index(line, "go run ")) > 0) {
        line = substr(line, i + 7)
        cmd = line
        sub(/[`#|;&>].*/, "", cmd)
        n = split(cmd, tok, " ")
        dir = ""
        first = 1
        if (tok[1] == "-C") {
            dir = tok[2]
            first = 3
            if (tok[3] != ".") continue
        } else if (tok[1] ~ /^\.\/cmd\//) {
            dir = substr(tok[1], 3)
        }
        if (dir == "" || dir ~ /[<*]/) continue
        data = dir != "cmd/epoch" && dir != "cmd/serve"
        for (j = first + 1; j <= n; j++) {
            f = tok[j]
            gsub(/^\[|\]$/, "", f)
            if (f !~ /^--?[A-Za-z]/) continue
            sub(/^--?/, "", f)
            sub(/=.*/, "", f)
            if (f ~ /^(data|probe|h|help)$/) data = 1
            if (f ~ /^(h|help)$/) continue # the flag package defines both
            print FILENAME "\t" dir "\t" f
        }
        if (!data) print FILENAME "\t" dir "\t<no -data>:" FNR
    }
}' "$@" | sort -u)
while IFS='	' read -r file dir flag; do
    [ -n "$flag" ] || continue
    case $flag in
    "<no -data>:"*)
        miss "$file:${flag#*:}: \`go run\` of $dir passes no -data (only -probe and -h run without a dataset)"
        continue
        ;;
    esac
    grep -Eq "[(,] *\"$flag\"," "$dir/main.go" 2>/dev/null ||
        miss "$file: \`go run\` of $dir passes -$flag, which $dir/main.go does not define"
done <<EOF
$flags
EOF

for hit in $(grep -EHo '(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' "$@" | sort -u); do
    name=${hit#*:}
    grep -rqs --include='*.go' "^func $name(" . ||
        miss "${hit%%:*} cites $name, but no func $name( exists"
done

exit $bad
