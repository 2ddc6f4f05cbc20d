# The identity gate for results/: regenerate every committed file there
# in a private work directory and require each one byte-identical.
#
# Each command runs in its own subdirectory, so the files it leaves there
# are exactly the files it writes. The gate fails on a file in results/
# that no command writes, on a file a command writes that results/ lacks,
# and on any byte difference; each failure names the command that
# regenerates the file.
#
# Inputs: SOURCE_DIR, WORK_DIR, PALS_REPRODUCE, PALS_SWEEP, BENCH_ABLATION,
# BENCH_SCALING_IMBALANCE.
set(RESULTS ${SOURCE_DIR}/results)
file(REMOVE_RECURSE ${WORK_DIR})

set(steps)
# regenerate(<step> <command...>): run the command with <step>'s directory
# as its working directory. Its output paths are relative, so the same
# command run in results/ regenerates the committed files.
macro(regenerate step)
  list(APPEND steps ${step})
  string(JOIN " " shown_${step} "cd ${RESULTS} &&" ${ARGN})
  file(MAKE_DIRECTORY ${WORK_DIR}/${step})
  execute_process(COMMAND ${ARGN} WORKING_DIRECTORY ${WORK_DIR}/${step}
                  RESULT_VARIABLE code OUTPUT_QUIET)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "step failed (${code}): ${shown_${step}}")
  endif()
endmacro()

regenerate(reproduce ${PALS_REPRODUCE} --output=REPORT.md)
regenerate(ext_suite ${PALS_SWEEP} --grid=${SOURCE_DIR}/configs/ext_suite.grid
           --out=ext_suite.csv --quiet)
regenerate(ablation ${BENCH_ABLATION})
regenerate(scaling ${BENCH_SCALING_IMBALANCE})

set(failures)
file(GLOB committed RELATIVE ${RESULTS} ${RESULTS}/*)
foreach(file ${committed})
  set(writer)
  foreach(step ${steps})
    if(EXISTS ${WORK_DIR}/${step}/${file})
      set(writer ${step})
    endif()
  endforeach()
  if(NOT writer)
    list(APPEND failures "results/${file}: no command of this gate writes it")
    continue()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${RESULTS}/${file} ${WORK_DIR}/${writer}/${file}
                  RESULT_VARIABLE diff)
  if(NOT diff EQUAL 0)
    list(APPEND failures
         "results/${file} differs from a fresh run, regenerate with: ${shown_${writer}}")
  endif()
endforeach()
foreach(step ${steps})
  file(GLOB written RELATIVE ${WORK_DIR}/${step} ${WORK_DIR}/${step}/*)
  foreach(file ${written})
    if(NOT EXISTS ${RESULTS}/${file})
      list(APPEND failures
           "results/${file} is missing, regenerate with: ${shown_${step}}")
    endif()
  endforeach()
endforeach()

if(failures)
  list(JOIN failures "\n  " text)
  message(FATAL_ERROR "results/ does not match a fresh run:\n  ${text}")
endif()
