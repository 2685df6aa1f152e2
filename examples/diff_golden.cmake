# Runs one example and compares its stdout with the checked-in golden; the
# examples report virtual time only, so their output is deterministic.
#
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<golden.txt> -DACTUAL=<out.txt> \
#         -P diff_golden.cmake
execute_process(COMMAND "${EXAMPLE}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${exit_code}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}"
                        "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${GOLDEN}" "${ACTUAL}")
  message(FATAL_ERROR "${ACTUAL} differs from ${GOLDEN}")
endif()
