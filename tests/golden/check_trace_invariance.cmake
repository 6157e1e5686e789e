# Runs a bench with and without --trace=<file> and fails unless both runs
# print the same stdout byte for byte: the tracer only reads the virtual
# clock, so recording a trace must never move a simulated number.
#
#   cmake -DBIN=<bench> [-DARGS=<arg;...>] -DTRACE=<file>
#         -P check_trace_invariance.cmake

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE plain
                RESULT_VARIABLE plain_status)
execute_process(COMMAND ${BIN} ${ARGS} --trace=${TRACE}
                OUTPUT_VARIABLE traced
                ERROR_QUIET
                RESULT_VARIABLE traced_status)
file(REMOVE ${TRACE})
if(NOT plain_status EQUAL 0 OR NOT traced_status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${plain_status} untraced, "
                      "${traced_status} traced")
endif()
if(NOT plain STREQUAL traced)
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} changes under --trace")
endif()
