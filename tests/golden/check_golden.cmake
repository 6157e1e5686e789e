# Runs a bench and fails unless its stdout equals a committed golden file
# byte for byte.
#
#   cmake -DBIN=<bench> [-DARGS=<arg;...>] -DGOLDEN=<file> -DOUT=<file>
#         -P check_golden.cmake
#
# OUT receives the actual stdout so a mismatch can be diffed. After a
# deliberate change to simulated behaviour, regenerate the golden file by
# running the bench with its stdout redirected there, and say why in
# CHANGES.md.

execute_process(COMMAND ${BIN} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
file(WRITE ${OUT} "${actual}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${GOLDEN}; "
                      "see: diff ${GOLDEN} ${OUT}")
endif()
