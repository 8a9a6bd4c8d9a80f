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

# Claim drift gate: every id in mnp_paper's claim registry (one
# `{"<id>", run_...` row of `kClaims` in bench/mnp_paper.cpp) needs an
# `mnp_paper <id>` recipe on a `Regenerate:` line of EXPERIMENTS.md, and
# every such recipe must name a registered id, so a claim can be neither
# added undocumented nor documented after it is gone.
registered=$(sed -n '/kClaims\[\] = {/,/^};/p' bench/mnp_paper.cpp |
             grep -oE '^ *\{"[a-z0-9]+", run_' | grep -oE '[a-z0-9]+"' | tr -d '"' |
             sort -u || true)
recipes=$(grep -E '^Regenerate:' EXPERIMENTS.md | grep -oE 'mnp_paper [a-z0-9]+' |
          sed 's/mnp_paper //' | sort -u || true)
if [ -z "$registered" ]; then
  echo "check_docs: could not parse claim ids from bench/mnp_paper.cpp" >&2
  fail=1
fi
while IFS= read -r id; do
  [ -n "$id" ] || continue
  if ! grep -qx "$id" <<< "$recipes"; then
    echo "check_docs: claim $id has no 'mnp_paper $id' Regenerate recipe in EXPERIMENTS.md" >&2
    fail=1
  fi
done <<< "$registered"
while IFS= read -r id; do
  [ -n "$id" ] || continue
  if ! grep -qx "$id" <<< "$registered"; then
    echo "check_docs: EXPERIMENTS.md recipe 'mnp_paper $id' names no registered claim" >&2
    fail=1
  fi
done <<< "$recipes"

# Lint-spec drift gate: every `<name>_transitions.txt` README.md, DESIGN.md
# or PROTOCOLS.md names must exist under tools/mnp_lint/, and PROTOCOLS.md
# must name every spec there, so the protocol table's "lint spec" row can
# neither point at a missing file nor leave a machine out.
specs=$(find tools/mnp_lint -maxdepth 1 -name '*_transitions.txt' -printf '%f\n' | sort -u)
spec_mentions=$(grep -hoE '[a-z0-9][a-z0-9_]*_transitions\.txt' README.md DESIGN.md PROTOCOLS.md |
                sort -u || true)
if [ -z "$specs" ]; then
  echo "check_docs: no *_transitions.txt spec under tools/mnp_lint/" >&2
  fail=1
fi
while IFS= read -r spec; do
  [ -n "$spec" ] || continue
  if ! grep -qx "$spec" <<< "$specs"; then
    echo "check_docs: the docs name lint spec $spec, which tools/mnp_lint/ does not have" >&2
    fail=1
  fi
done <<< "$spec_mentions"
while IFS= read -r spec; do
  [ -n "$spec" ] || continue
  if ! grep -qF "$spec" PROTOCOLS.md; then
    echo "check_docs: lint spec tools/mnp_lint/$spec is not named in PROTOCOLS.md" >&2
    fail=1
  fi
done <<< "$specs"

# Telemetry schema gate: DESIGN.md §9 states the schema version twice, in
# its intro ("currently **N**") and in §9.2's manifest layout ("this
# contract's version (N)"), and both must be obs::kTelemetrySchemaVersion.
schema=$(grep -oE 'kTelemetrySchemaVersion = [0-9]+' src/obs/metrics.hpp |
         grep -oE '[0-9]+$' || true)
intro=$(grep -oE 'currently \*\*[0-9]+\*\*' DESIGN.md | grep -oE '[0-9]+' || true)
layout=$(grep -oE "this contract's version \([0-9]+\)" DESIGN.md |
         grep -oE '[0-9]+' || true)
if [ -z "$schema" ]; then
  echo "check_docs: could not parse kTelemetrySchemaVersion from src/obs/metrics.hpp" >&2
  fail=1
fi
for stated in "§9 intro:$intro" "§9.2 manifest layout:$layout"; do
  if [ "${stated#*:}" != "$schema" ]; then
    echo "check_docs: DESIGN.md ${stated%%:*} gives schema version" \
         "'${stated#*:}', src/obs/metrics.hpp has $schema" >&2
    fail=1
  fi
done

if [ "$fail" -eq 0 ]; then
  echo "check_docs: OK ($checked documented binary paths resolve to targets;" \
       "$(wc -l <<< "$registered") claims have recipes;" \
       "$(wc -l <<< "$specs") lint specs documented; schema v$schema)"
fi
exit "$fail"
