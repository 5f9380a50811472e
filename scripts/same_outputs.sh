#!/usr/bin/env bash
# Output identity against a base commit, for changes that must not move a
# single output byte:
#
#   scripts/same_outputs.sh BASE_REF
#
# Builds BASE_REF (checked out as a temporary git worktree) and the working
# tree, both Release, under one `mktemp -d` directory that is removed on
# exit. Runs every examples/manifests/*.json of the working tree through
# `eend_run --quick --quiet` at --jobs 1 and 8 on both builds, with --csv,
# --jsonl and --counters, and compares stdout, CSV, JSONL and counters
# with cmp. Lists each file that differs and exits 1 on any difference (2
# on a usage or build error). Last, prints the `git diff BASE_REF -- src/`
# line totals, then the same split into code lines and comment or blank
# lines; untracked files are not counted. Writes nothing in the tree.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BASE_REF" >&2
  exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
base_ref="$1"
if ! base_sha="$(git -C "$root" rev-parse --verify --quiet "$base_ref^{commit}")"; then
  echo "same_outputs: '$base_ref' is not a commit" >&2
  exit 2
fi

tmp="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/base" > /dev/null 2>&1 || true
  git -C "$root" worktree prune > /dev/null 2>&1 || true
  rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --detach --quiet "$tmp/base" "$base_sha"

jobs="$(nproc 2> /dev/null || echo 2)"
build() {  # source dir, build dir
  echo "== build $1 ==" >&2
  if ! { cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$2" --target eend_run -j"$jobs"; } > "$2.log" 2>&1; then
    tail -n 30 "$2.log" >&2
    echo "same_outputs: build of $1 failed (log above)" >&2
    exit 2
  fi
}
build "$tmp/base" "$tmp/build-base"
build "$root" "$tmp/build-head"

runs=0
for side in base head; do
  bin="$tmp/build-$side/tools/eend_run"
  out="$tmp/out-$side"
  mkdir -p "$out"
  for manifest in "$root"/examples/manifests/*.json; do
    name="$(basename "$manifest" .json)"
    for j in 1 8; do
      stem="$out/$name.jobs$j"
      if ! "$bin" --manifest "$manifest" --quick --quiet --jobs="$j" \
          --csv="$stem.csv" --jsonl="$stem.jsonl" \
          --counters="$stem.counters.jsonl" > "$stem.stdout" 2> "$stem.stderr"; then
        echo "same_outputs: $side eend_run failed on $name --jobs=$j:" >&2
        cat "$stem.stderr" >&2
        exit 2
      fi
      runs=$((runs + 1))
    done
  done
done

compared=0 differ=0
for f in "$tmp"/out-head/*; do
  file="$(basename "$f")"
  [[ "$file" == *.stderr ]] && continue
  compared=$((compared + 1))
  if ! cmp -s "$f" "$tmp/out-base/$file"; then
    echo "differs: $file"
    differ=$((differ + 1))
  fi
done
echo "same_outputs: $runs runs, $compared files compared against" \
  "$base_ref ($base_sha), $differ differ"

# Each changed line in a hunk counts as code unless it is blank or starts
# with //, /* or * (a comment line).
git -C "$root" diff --unified=0 "$base_sha" -- src/ |
  awk '/^diff / { hunk = 0 }
       /^@@/ { hunk = 1; next }
       hunk && /^[+-]/ {
         side = substr($0, 1, 1); text = substr($0, 2)
         sub(/^[ \t]+/, "", text)
         kind = (text == "" || text ~ /^(\/\/|\/\*|\*)/) ? "other" : "code"
         n[side, kind]++
       }
       END {
         a = n["+", "code"] + n["+", "other"]
         d = n["-", "code"] + n["-", "other"]
         printf "src/ vs base: +%d -%d (net %+d)\n", a, d, a - d
         printf "  code: +%d -%d (net %+d); comments and blank: +%d -%d" \
                " (net %+d)\n", n["+", "code"], n["-", "code"],
                n["+", "code"] - n["-", "code"], n["+", "other"],
                n["-", "other"], n["+", "other"] - n["-", "other"]
       }'
[[ $differ -eq 0 ]]
