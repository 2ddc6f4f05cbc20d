# End-to-end smoke of the serve daemon through its real binaries
# (docs/serve.md): start pals_serve in the background, wait on its
# ready file, drive pals_query's ping / request-battery / chaos modes,
# compare the battery transcript with GOLDEN (elapsed_ms masked),
# validate the request battery structurally, require the --grid
# transcript to be byte-identical to `pals_sweep --jobs=1`, then SIGTERM
# the daemon and require a clean drain (exit 0).
#
# Backgrounding a daemon is not expressible in pure CMake script, so the
# choreography runs under bash (the repo's tier-1 script already
# requires it).
file(MAKE_DIRECTORY ${WORK_DIR})

set(script "
set -eu
sock=${WORK_DIR}/smoke_serve.sock
ready=${WORK_DIR}/smoke_serve.ready
rm -f \"$sock\" \"$ready\"

${PALS_SERVE} --socket=$sock --ready-file=$ready --jobs=2 --quiet &
daemon=$!
trap 'kill -9 $daemon 2>/dev/null || true' EXIT

for _ in $(seq 1 200); do
  [ -f \"$ready\" ] && break
  sleep 0.05
done
[ -f \"$ready\" ] || { echo 'daemon never became ready' >&2; exit 1; }

${PALS_QUERY} --socket=$sock --ping
${PALS_QUERY} --socket=$sock --requests=${REQUESTS} \
    > ${WORK_DIR}/smoke_serve_battery.txt
# The battery's answers are deterministic: pin the transcript, host-time
# fields (elapsed_ms) masked as scripts/tier1.sh masks them.
sed -E 's/(elapsed_ms[=:]\"?)[0-9.eE+-]+/\\1MASKED/g' \
    ${WORK_DIR}/smoke_serve_battery.txt \
    > ${WORK_DIR}/smoke_serve_battery.masked.txt
cmp ${GOLDEN} ${WORK_DIR}/smoke_serve_battery.masked.txt || {
  echo 'served battery differs from ${GOLDEN}; to regenerate, run the' \
       'battery against a fresh pals_serve and mask it with the sed above' >&2
  exit 1
}
${PALS_QUERY} --socket=$sock --chaos=8
${PALS_QUERY} --socket=$sock --ping   # still healthy after the chaos leg

# Byte-identity: the served grid vs the batch engine.
${PALS_QUERY} --socket=$sock --grid=${GRID} \
    --out=${WORK_DIR}/smoke_serve_grid.csv
${PALS_SWEEP} --grid=${GRID} --jobs=1 --quiet \
    --out=${WORK_DIR}/smoke_serve_ref.csv
cmp ${WORK_DIR}/smoke_serve_grid.csv ${WORK_DIR}/smoke_serve_ref.csv

# Structural validation of the request battery itself.
${PALS_JSON_CHECK} --serve ${REQUESTS}

# Cooperative drain: SIGTERM must exit 0 and unlink the socket.
kill -TERM $daemon
code=0
wait $daemon || code=$?
trap - EXIT
[ \"$code\" -eq 0 ] || { echo \"drain exited $code\" >&2; exit 1; }
[ ! -e \"$sock\" ] || { echo 'socket not unlinked after drain' >&2; exit 1; }
")

execute_process(COMMAND bash -c "${script}" RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "serve smoke failed (${code})")
endif()
