#!/usr/bin/env bash
# Dead-module gate, as run by the CI build job: fail when a library module
# (lib/<dir>/<m>.ml) is referenced only by
#
#   - its own .ml/.mli,
#   - the Minflo facade (lib/core/minflo.ml),
#   - test/ and examples/,
#   - comments (doc references such as {!M} included).
#
# Every other source file counts as a caller: the libraries themselves,
# bin/, bench/ and perfbench/. References are resolved the way the compiler
# would, without building anything:
#
#   Minflo_x.M ...         a qualified path names module M of library x;
#   Minflo.A ... / A ...   after `open Minflo`, a facade alias
#                          (module A = Minflo_x.M) names its target;
#   M ...                  a bare name resolves through the file's opens,
#                          last open first, then the file's own library;
#                          a local `module M = ...` shadows all of them.
#
# So same-named modules stay apart: in bin/, `Check.` is Minflo_bdd.Check
# (the facade alias) and `Invariants.` is Minflo_robust.Check.
#
# Usage: scripts/dead_modules.sh      (exit 0 clean, 1 dead modules found)
set -euo pipefail
cd "$(dirname "$0")/.."

index=$(mktemp)
trap 'rm -f "$index"' EXIT

# L <wrapper> <dir>, M <wrapper> <module>, A <alias> <wrapper> <module>
for d in lib/*/; do
  d=${d%/}
  [ "$d" = lib/core ] && continue
  lib=$(sed -n 's/.*(name \([a-z0-9_]*\)).*/\1/p' "$d/dune" | head -n 1)
  [ -n "$lib" ] || continue
  wrap="$(printf '%s' "${lib:0:1}" | tr a-z A-Z)${lib:1}"
  echo "L $wrap $d"
  for f in "$d"/*.ml; do
    [ -e "$f" ] || continue
    b=$(basename "$f" .ml)
    echo "M $wrap $(printf '%s' "${b:0:1}" | tr a-z A-Z)${b:1}"
  done
done >"$index"
sed -n 's/^module \([A-Z][A-Za-z0-9_]*\) = \(Minflo_[a-z0-9_]*\)\.\([A-Z][A-Za-z0-9_]*\)$/A \1 \2 \3/p' \
  lib/core/minflo.ml >>"$index"

callers=$(find lib bin bench perfbench -name '*.ml' -o -name '*.mli' \
  | grep -v -e '^lib/core/' -e '/_build/' | sort)

# shellcheck disable=SC2086
awk '
function cap(s) { return toupper(substr(s, 1, 1)) substr(s, 2) }

# Drop comments and string/char literals, keeping code. Comment depth and
# open literals carry across lines; OCaml lexes strings inside comments,
# so a "*)" in a string never closes one.
function strip(line,    out, i, n, c, c2, j, rest) {
  out = ""; n = length(line); i = 1
  while (i <= n) {
    c = substr(line, i, 1); c2 = substr(line, i, 2)
    if (qend != "") {
      j = index(substr(line, i), qend)
      if (j == 0) return out
      i += j - 1 + length(qend); qend = ""; continue
    }
    if (instr) {
      if (c == "\\") { i += 2; continue }
      if (c == "\"") instr = 0
      i++; continue
    }
    if (c == "\"") { instr = 1; out = out " "; i++; continue }
    rest = substr(line, i)
    if (match(rest, /^\{[a-z_]*\|/)) {
      qend = "|" substr(rest, 2, RLENGTH - 2) "}"; out = out " "; i += RLENGTH; continue
    }
    if (c == "'\''") {
      if (substr(line, i + 1, 1) == "\\") {
        j = index(substr(line, i + 2), "'\''"); i += (j ? j + 2 : 2); continue
      }
      if (substr(line, i + 2, 1) == "'\''") { i += 3; continue }
    }
    if (c2 == "(*") { depth++; out = out " "; i += 2; continue }
    if (depth > 0) {
      if (c2 == "*)") { depth--; i += 2; continue }
      i++; continue
    }
    out = out c; i++
  }
  return out
}

function ref(w, m) {
  if (w "." m != own && ((w, m) in mods)) live[w "." m] = 1
}

# A module path c1.c2...: resolve its head the way the compiler would.
function resolve(chain, head_is_module,    comp, n, j, a) {
  n = split(chain, comp, ".")
  if ((comp[1] in wrappers) && n >= 2) { ref(comp[1], comp[2]); return }
  if (comp[1] == "Minflo" && n >= 2) {
    if (comp[2] in alias) { split(alias[comp[2]], a, " "); ref(a[1], a[2]) }
    return
  }
  if (n < 2 && !head_is_module) return
  if (comp[1] in local) return
  for (j = nopen; j >= 1; j--) {
    if (opened[j] == "Minflo") {
      if (comp[1] in alias) { split(alias[comp[1]], a, " "); ref(a[1], a[2]); return }
    } else if ((opened[j], comp[1]) in mods) { ref(opened[j], comp[1]); return }
  }
  if (selflib != "") ref(selflib, comp[1])
}

FILENAME == ARGV[1] {
  if ($1 == "L") { wrappers[$2] = 1; libof[$3] = $2 }
  else if ($1 == "M") { mods[$2, $3] = 1; order[++nmods] = $2 "." $3 }
  else if ($1 == "A") alias[$2] = $3 " " $4
  next
}

FNR == 1 {
  depth = 0; instr = 0; qend = ""; nopen = 0
  split("", local); split("", opened)
  dir = FILENAME; sub(/\/[^\/]*$/, "", dir)
  selflib = (dir in libof) ? libof[dir] : ""
  base = FILENAME; sub(/^.*\//, "", base); sub(/\.mli?$/, "", base)
  own = selflib "." cap(base)
}

{
  s = strip($0)
  while (match(s, /[A-Z][A-Za-z0-9_'\'']*(\.[A-Z][A-Za-z0-9_'\'']*)*/)) {
    chain = substr(s, RSTART, RLENGTH)
    pre = substr(s, 1, RSTART - 1)
    s = substr(s, RSTART + RLENGTH)
    if (pre ~ /[A-Za-z0-9_'\''`]$/) continue
    if (pre ~ /(^|[^A-Za-z0-9_])module[ \t]+(rec[ \t]+)?$/) { local[chain] = 1; continue }
    if (pre ~ /(^|[^A-Za-z0-9_])module[ \t]+type[ \t]+$/) continue
    if (pre ~ /(^|[^A-Za-z0-9_])open!?[ \t]+$/ && (chain in wrappers || chain == "Minflo")) {
      opened[++nopen] = chain; continue
    }
    if ((chain in wrappers) && s ~ /^\.\(/) { opened[++nopen] = chain; continue }
    resolve(chain, s ~ /^\./ \
      || pre ~ /(^|[^A-Za-z0-9_])(open!?|include)[ \t]+$/ \
      || pre ~ /module[ \t]+[A-Z][A-Za-z0-9_'\'']*[ \t]*=[ \t]*$/ \
      || pre ~ /\([ \t]*module[ \t]+$/)
  }
}

END {
  dead = 0
  for (k = 1; k <= nmods; k++)
    if (!(order[k] in live)) { print "dead module: " order[k]; dead++ }
  if (dead) {
    printf "%d of %d library modules are referenced only by their own files, the facade, tests, examples or comments\n", dead, nmods
    exit 1
  }
  printf "dead modules: none (%d library modules)\n", nmods
}
' "$index" $callers
