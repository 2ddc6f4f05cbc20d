#!/usr/bin/env bash
# Lists the library functions that no shipped executable keeps.
#
# Configures BUILD_DIR as a second build at -O0 with one section per
# function (-ffunction-sections -fdata-sections) and links with
# --gc-sections, so a function that no shipped executable reaches is
# dropped from every binary. It then lists each strong text (`T`) symbol
# of the static libraries under src/ that none of the executables in
# tools/, bench/ and examples/ keeps. Header-only and template code is
# weak (`W`) and not counted.
#
# Each function that may stay unused is listed in
# scripts/unused_functions.allow as `demangled name # reason`. The script
# prints the count and the demangled list, and exits 1 when an unused
# function is missing from the allow-list or a listed one is used again.
#
# Usage: scripts/unused_functions.sh BUILD_DIR
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/unused_functions.sh BUILD_DIR" >&2
  exit 2
fi
BUILD_DIR=$1
ALLOW=scripts/unused_functions.allow
JOBS=$(nproc 2>/dev/null || echo 2)

# Build type None adds no flags of its own, so -O0 is the level used.
cmake -B "${BUILD_DIR}" -S . -G "Unix Makefiles" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >/dev/null
# Each directory's Makefile builds that directory's targets and the
# libraries they link, but not the test binaries. The compiler's output
# is shown only when the build fails.
for dir in tools bench examples; do
  if ! make -C "${BUILD_DIR}/${dir}" -j "${JOBS}" > "${BUILD_DIR}/make.log" 2>&1; then
    cat "${BUILD_DIR}/make.log" >&2
    exit 2
  fi
done

libs=$(find "${BUILD_DIR}/src" -name 'lib*.a' | sort)
exes=$(find "${BUILD_DIR}/tools" "${BUILD_DIR}/bench" "${BUILD_DIR}/examples" \
    -path '*/CMakeFiles' -prune -o -type f -perm -u+x -print | sort)
echo "$(echo "${libs}" | wc -l) libraries, $(echo "${exes}" | wc -l) executables"

work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT
# shellcheck disable=SC2086
nm --defined-only ${libs} 2>/dev/null | awk '$2 == "T" { print $3 }' \
    | sort -u > "${work}/defined"
for exe in ${exes}; do
  nm --defined-only "${exe}" | awk '{ print $3 }'
done | sort -u > "${work}/kept"
comm -23 "${work}/defined" "${work}/kept" | c++filt | sort -u > "${work}/unused"

# The allow-list: drop comments and blank lines, split name from reason.
grep -v -e '^[[:space:]]*#' -e '^[[:space:]]*$' "${ALLOW}" > "${work}/allow.lines" || true
status=0
if grep -v ' # ..*' "${work}/allow.lines" > "${work}/no_reason"; then
  echo "allow-list entries without a reason:" >&2
  sed 's/^/  /' "${work}/no_reason" >&2
  status=1
fi
sed -E 's/[[:space:]]+#.*$//' "${work}/allow.lines" | sort -u > "${work}/allowed"

echo "unused library functions: $(wc -l < "${work}/unused")"
sed 's/^/  /' "${work}/unused"

missing=$(comm -23 "${work}/unused" "${work}/allowed")
if [ -n "${missing}" ]; then
  echo "unused and not on ${ALLOW}:" >&2
  echo "${missing}" | sed 's/^/  /' >&2
  status=1
fi
stale=$(comm -13 "${work}/unused" "${work}/allowed")
if [ -n "${stale}" ]; then
  echo "on ${ALLOW} but no longer unused:" >&2
  echo "${stale}" | sed 's/^/  /' >&2
  status=1
fi
exit "${status}"
