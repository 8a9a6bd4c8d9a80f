#!/usr/bin/env bash
# Docs/build-tree consistency check: every `build/.../<binary>` path named
# in the docs (README quickstarts, EXPERIMENTS.md regeneration recipes)
# must refer to an executable target declared somewhere in the CMake tree,
# so a renamed or deleted bench cannot leave a stale recipe behind. Runs
# without configuring a build — targets are parsed from CMakeLists.txt.
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md EXPERIMENTS.md DESIGN.md)
fail=0

# Every executable target declared in the tree.
targets=$(grep -rhoE '(add_executable|mnp_add_(bench|test|example))\( *[A-Za-z0-9_]+' \
            --include=CMakeLists.txt . |
          sed -E 's/.*\( *//' | sort -u)

# Every build/<dir>/<name> path mentioned in the docs (fenced or inline).
mentions=$(grep -hoE '(\./)?build[-A-Za-z0-9_]*/[A-Za-z0-9_/]+' "${docs[@]}" |
           sed 's|^\./||' | sort -u)

checked=0
while IFS= read -r path; do
  [ -n "$path" ] || continue
  name=$(basename "$path")
  case "$name" in
    bench | tests | examples | tools) continue ;;  # bare directory mention
    *_) continue ;;                                # glob prefix (bench_*)
  esac
  checked=$((checked + 1))
  if ! grep -qx "$name" <<< "$targets"; then
    echo "check_docs: '$path' names no executable target ('$name')" >&2
    fail=1
  fi
done <<< "$mentions"

# The observability flags the recipes advertise must exist in the parser.
for flag in --trace-out --metrics-out; do
  if ! grep -q -- "\"$flag\"" src/harness/observe.cpp; then
    echo "check_docs: documented flag $flag not found in observe.cpp" >&2
    fail=1
  fi
done

# Protocol drift gate: the set of `--protocol` values the CLIs accept and
# the set the docs advertise must match in both directions. Accepted
# values are parsed from the config schema's protocol spellings
# (`kProtocolNames` in src/harness/config_schema.cpp); documented values
# from every `--protocol name` mention in the user-facing docs.
accepted=$(sed -n '/kProtocolNames\[\] = {/,/};/p' src/harness/config_schema.cpp |
           grep -oE '"[a-z]+"' | tr -d '"' | sort -u)
documented=$(grep -hoE '\-\-protocol [a-z|]+' README.md DESIGN.md PROTOCOLS.md EXPERIMENTS.md 2>/dev/null |
             sed 's/--protocol //' | tr '|' '\n' | sort -u || true)
if [ -z "$accepted" ]; then
  echo "check_docs: could not parse accepted --protocol values from config_schema.cpp" >&2
  fail=1
fi
while IFS= read -r p; do
  [ -n "$p" ] || continue
  if ! grep -qx "$p" <<< "$documented"; then
    echo "check_docs: CLI accepts --protocol $p but no doc mentions it" >&2
    fail=1
  fi
done <<< "$accepted"
while IFS= read -r p; do
  [ -n "$p" ] || continue
  if ! grep -qx "$p" <<< "$accepted"; then
    echo "check_docs: docs mention --protocol $p but the CLI rejects it" >&2
    fail=1
  fi
done <<< "$documented"

# Fleet-service endpoint gate: the HTTP routes mnp_simd registers
# (`add_route("METHOD", "/path", ...)` in src/service/server.cpp) and the
# endpoint table in DESIGN.md §14 must match in both directions, so a
# route can be neither added silently nor documented speculatively.
served=$(grep -hoE 'add_route\("(GET|POST|PUT|DELETE)", "[^"]+"' \
           src/service/server.cpp |
         sed -E 's/add_route\("([A-Z]+)", "([^"]+)"/\1 \2/' | sort -u)
endpoints_doc=$(grep -hoE '^\| `(GET|POST|PUT|DELETE)` \| `[^`]+`' DESIGN.md |
                sed -E 's/^\| `([A-Z]+)` \| `([^`]+)`/\1 \2/' | sort -u)
if [ -z "$served" ]; then
  echo "check_docs: could not parse add_route registrations from src/service/server.cpp" >&2
  fail=1
fi
while IFS= read -r route; do
  [ -n "$route" ] || continue
  if ! grep -qxF "$route" <<< "$endpoints_doc"; then
    echo "check_docs: server routes '$route' but DESIGN.md's endpoint table omits it" >&2
    fail=1
  fi
done <<< "$served"
while IFS= read -r route; do
  [ -n "$route" ] || continue
  if ! grep -qxF "$route" <<< "$served"; then
    echo "check_docs: DESIGN.md documents endpoint '$route' but the server has no such route" >&2
    fail=1
  fi
done <<< "$endpoints_doc"

if [ "$fail" -eq 0 ]; then
  echo "check_docs: OK ($checked documented binary paths resolve to targets)"
fi
exit "$fail"
