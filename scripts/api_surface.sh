#!/usr/bin/env bash
# Prints the workspace's public API surface — every `pub` item declaration
# in every crate — in a stable, diffable form. Pure text processing (no
# build, no network); the committed snapshot lives at
# scripts/api_surface.txt and scripts/check.sh fails when they diverge,
# so public-API changes are always a deliberate, reviewed act:
#
#   scripts/api_surface.sh > scripts/api_surface.txt
#
# The listing is names-only (truncated at the first `;(){=`), so bodies,
# fields and where-clauses can change freely; adding, removing or renaming
# a public item is what trips the gate. Members of a `pub trait` carry no
# `pub` of their own, so a second pass lists each one at the trait's brace
# depth 1 as `trait Name fn|type|const member`.
set -euo pipefail
cd "$(dirname "$0")/.."

# Prints `trait Name kind member` for every member of every `pub trait` in
# the given files. Comments are dropped before braces are counted.
trait_members() {
  awk '
    FNR == 1 { in_trait = 0 }
    {
      line = $0
      sub(/\/\/.*/, "", line)
      if (!in_trait && match(line, /^[[:space:]]*pub (unsafe )?trait [A-Za-z0-9_]+/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/.*trait /, "", name)
        in_trait = 1; opened = 0; depth = 0
      }
      if (!in_trait) next
      if (opened && depth == 1 &&
          match(line, /^[[:space:]]*(unsafe )?(fn|type|const) [A-Za-z0-9_]+/)) {
        member = substr(line, RSTART, RLENGTH)
        sub(/^[[:space:]]*(unsafe )?/, "", member)
        print "trait " name " " member
      }
      n_open = gsub(/\{/, "{", line)
      n_close = gsub(/\}/, "}", line)
      if (n_open > 0) opened = 1
      depth += n_open - n_close
      if (opened && depth <= 0) in_trait = 0
    }
  ' "$@"
}

for src in crates/*/src; do
  crate="$(basename "$(dirname "$src")")"
  {
    grep -rhoE \
      '^[[:space:]]*pub (async )?(unsafe )?(fn|struct|enum|trait|const|static|type|mod|use) [^;({=<]*' \
      "$src" \
      | sed -E 's/^[[:space:]]+//; s/[[:space:]]+/ /g; s/ $//'
    trait_members $(find "$src" -name '*.rs' | LC_ALL=C sort)
  } \
    | LC_ALL=C sort -u \
    | sed "s|^|$crate: |"
done
