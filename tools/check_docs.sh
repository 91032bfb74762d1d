#!/usr/bin/env bash
# Documentation gates, run by the CI `docs` job (and locally: tools/check_docs.sh):
#
#  1. Every public header under src/ must open with a file-level doc comment
#     (a `//` line immediately after `#pragma once`) — the convention every
#     module in this repo follows.
#  2. Every intra-repo Markdown link ([text](path)) in the tracked *.md files
#     must resolve to an existing file, so doc refactors can't leave dangling
#     references.
#  3. The emitted-kernel listing in CODEGEN.md §7 (between the BEGIN/END
#     GENERATED markers) must match what the live emitter produces for the
#     gray-model scenario (tools/emit_kernel_listing). Run with --fix to
#     regenerate the block in place. Skipped with a note when the tool binary
#     is not built; set FINCH_EMIT_TOOL to point at it explicitly.
#  4. Every header under src/ must be included by some file outside tests/
#     (src/, bench/, examples/, perfledger/src/, tools/) other than its own
#     .cpp, so a module that only its own test reaches cannot grow back.
#  5. Every metric prefix `<prefix>.*` in the first column of OBSERVABILITY.md's
#     "Metric registry" table must occur as a "<prefix>. string literal in
#     src/, so a documented metric family cannot outlive the code emitting it.
set -u
cd "$(dirname "$0")/.."

fix_mode=0
[ "${1:-}" = "--fix" ] && fix_mode=1

failures=0

# ---- 1. undocumented public headers -----------------------------------------
while IFS= read -r hpp; do
  second_line=$(sed -n 2p "$hpp")
  case "$second_line" in
    //*) ;;
    *)
      echo "DOCS-CHECK [!!] missing file-level doc comment: $hpp"
      failures=$((failures + 1))
      ;;
  esac
done < <(find src -name '*.hpp' | sort)

# ---- 2. intra-repo Markdown links -------------------------------------------
# Extract [text](target) links; ignore external URLs, mailto and pure anchors.
while IFS= read -r md; do
  dir=$(dirname "$md")
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}   # strip anchor
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "DOCS-CHECK [!!] broken link in $md: $target"
      failures=$((failures + 1))
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$md" | sed 's/.*](\([^)]*\))/\1/')
done < <(find . -name '*.md' -not -path './build/*' -not -path './.git/*' | sort)

# ---- 3. CODEGEN.md emitted-kernel listing -----------------------------------
# The listing is the emitter's verbatim output; regenerating on drift keeps
# the documented kernel honest the same way the golden source tests do.
emit_tool="${FINCH_EMIT_TOOL:-}"
if [ -z "$emit_tool" ]; then
  for cand in build*/tools/emit_kernel_listing; do
    [ -x "$cand" ] && emit_tool="$cand" && break
  done
fi
if [ -f CODEGEN.md ]; then
  if [ -z "$emit_tool" ] || [ ! -x "$emit_tool" ]; then
    echo "DOCS-CHECK [--] CODEGEN.md listing not checked (emit_kernel_listing not built;" \
         "build it or set FINCH_EMIT_TOOL)"
  else
    begin_marker='<!-- BEGIN GENERATED: emit_kernel_listing -->'
    end_marker='<!-- END GENERATED -->'
    if ! grep -qF "$begin_marker" CODEGEN.md || ! grep -qF "$end_marker" CODEGEN.md; then
      echo "DOCS-CHECK [!!] CODEGEN.md is missing the GENERATED listing markers"
      failures=$((failures + 1))
    else
      current=$(mktemp) && expected=$(mktemp)
      # Between the markers the doc wraps the listing in a ```cpp fence.
      awk -v b="$begin_marker" -v e="$end_marker" \
          '$0==e{on=0} on && $0!~/^```/{print} $0==b{on=1}' CODEGEN.md > "$current"
      "$emit_tool" > "$expected" || { echo "DOCS-CHECK [!!] emit_kernel_listing failed"; failures=$((failures + 1)); }
      if ! diff -q "$current" "$expected" >/dev/null; then
        if [ "$fix_mode" -eq 1 ]; then
          rebuilt=$(mktemp)
          awk -v b="$begin_marker" -v e="$end_marker" -v src="$expected" '
            $0==b { print; print "```cpp"; while ((getline line < src) > 0) print line; print "```"; skip=1; next }
            $0==e { skip=0 }
            !skip { print }' CODEGEN.md > "$rebuilt"
          mv "$rebuilt" CODEGEN.md
          echo "DOCS-CHECK [ok] CODEGEN.md listing regenerated from the emitter"
        else
          echo "DOCS-CHECK [!!] CODEGEN.md §7 listing drifted from the emitter" \
               "(run tools/check_docs.sh --fix)"
          diff "$current" "$expected" | head -20
          failures=$((failures + 1))
        fi
      else
        echo "DOCS-CHECK [ok] CODEGEN.md listing matches the emitter"
      fi
      rm -f "$current" "$expected"
    fi
  fi
else
  echo "DOCS-CHECK [!!] CODEGEN.md not found"
  failures=$((failures + 1))
fi

# ---- 4. orphan headers --------------------------------------------------------
# Resolve every quoted #include the way the build does: next to the including
# file first, then from src/. A module's own .cpp does not count as a user.
reached=$(mktemp)
while IFS= read -r file; do
  dir=$(dirname "$file")
  stem=${file%.*}
  sed -n 's/^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*/\1/p' "$file" |
    while IFS= read -r inc; do
      if [ -e "$dir/$inc" ]; then target="$dir/$inc"; else target="src/$inc"; fi
      [ "${target%.hpp}" = "$stem" ] || echo "$target"
    done
done < <(find src bench examples perfledger/src tools \( -name '*.cpp' -o -name '*.hpp' \) | sort) |
  sort -u > "$reached"
while IFS= read -r hpp; do
  if ! grep -qxF "$hpp" "$reached"; then
    echo "DOCS-CHECK [!!] orphan header (included by no file outside tests/): $hpp"
    failures=$((failures + 1))
  fi
done < <(find src -name '*.hpp' | sort)
rm -f "$reached"

# ---- 5. metric registry prefixes ----------------------------------------------
prefixes=$(awk '/^## Metric registry/ { on = 1; next } on && /^## / { on = 0 } on && /^\| `/' \
             OBSERVABILITY.md | cut -d'|' -f2 | grep -o '`[a-z_.]*\.\*`' | tr -d '`' |
             sed 's/\.\*$//' | sort -u)
if [ -z "$prefixes" ]; then
  echo "DOCS-CHECK [!!] OBSERVABILITY.md has no Metric registry prefixes"
  failures=$((failures + 1))
fi
for prefix in $prefixes; do
  if ! grep -rqF "\"$prefix." src; then
    echo "DOCS-CHECK [!!] OBSERVABILITY.md documents metric prefix $prefix.* but no" \
         "\"$prefix. literal in src/ emits it"
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "DOCS-CHECK: $failures failure(s)"
  exit 1
fi
echo "DOCS-CHECK [ok] all public headers documented and reached, all Markdown links resolve," \
     "all documented metric prefixes emitted"
