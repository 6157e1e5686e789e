# Runs a bench without --trace and twice with --trace=<file>, and fails
# unless all three runs print the same stdout byte for byte (the tracer only
# reads the virtual clock, so recording a trace must never move a simulated
# number), the two traces are identical (a trace is deterministic too), and
# the trace parses as JSON.
#
#   cmake -DBIN=<bench> [-DARGS=<arg;...>] -DTRACE=<file>
#         -P check_trace_invariance.cmake

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE plain
                RESULT_VARIABLE plain_status)
foreach(run 1 2)
  execute_process(COMMAND ${BIN} ${ARGS} --trace=${TRACE}.${run}
                  OUTPUT_VARIABLE traced${run}
                  ERROR_QUIET
                  RESULT_VARIABLE traced${run}_status)
endforeach()
if(NOT plain_status EQUAL 0 OR NOT traced1_status EQUAL 0 OR
   NOT traced2_status EQUAL 0)
  file(REMOVE ${TRACE}.1 ${TRACE}.2)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${plain_status} untraced, "
                      "${traced1_status} and ${traced2_status} traced")
endif()
file(SHA256 ${TRACE}.1 sha1)
file(SHA256 ${TRACE}.2 sha2)
file(READ ${TRACE}.1 trace)
file(REMOVE ${TRACE}.1 ${TRACE}.2)
if(NOT plain STREQUAL traced1 OR NOT plain STREQUAL traced2)
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} changes under --trace")
endif()
if(NOT sha1 STREQUAL sha2)
  message(FATAL_ERROR "two --trace runs of ${BIN} ${ARGS} wrote different "
                      "traces")
endif()
string(JSON type ERROR_VARIABLE error TYPE "${trace}")
if(error)
  message(FATAL_ERROR "the trace of ${BIN} ${ARGS} is not JSON: ${error}")
endif()
