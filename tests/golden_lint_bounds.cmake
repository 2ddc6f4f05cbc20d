# The identity gate for the static gate's answers: pals_lint --bounds
# --json of every examples/traces/*.palst under every controller, run
# from the source tree so each "input" field is the relative path,
# compared byte for byte with golden/lint_bounds.jsonl. With -DOUTPUT=F
# it writes the fresh output to F instead (tools/update_golden runs it so
# to regenerate the golden), so the command lives only here.
#
#   cmake -DPALS_LINT=... -DSOURCE_DIR=... [-DOUTPUT=F] -P golden_lint_bounds.cmake
file(GLOB traces RELATIVE "${SOURCE_DIR}" "${SOURCE_DIR}/examples/traces/*.palst")
list(SORT traces)
execute_process(
  COMMAND "${PALS_LINT}" --bounds --json
          --controller=static,dynamic_max,dynamic_avg,slack,ewma,jitter
          ${traces}
  WORKING_DIRECTORY "${SOURCE_DIR}"
  OUTPUT_VARIABLE fresh
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "pals_lint exited ${status}")
endif()
if(DEFINED OUTPUT)
  # Replaced atomically, like every golden update_golden writes.
  file(WRITE "${OUTPUT}.tmp" "${fresh}")
  file(RENAME "${OUTPUT}.tmp" "${OUTPUT}")
  return()
endif()
file(READ "${SOURCE_DIR}/golden/lint_bounds.jsonl" pinned)
if(NOT fresh STREQUAL pinned)
  message(FATAL_ERROR
    "pals_lint --bounds --json differs from golden/lint_bounds.jsonl; "
    "regenerate with `update_golden --dir=golden` and review the diff.\n"
    "fresh:\n${fresh}")
endif()
