# Runs `eal ARGS...` and requires it to reject a command-line value: exit
# code 2 and an "eal: error: malformed" diagnostic on stderr, never a
# crash or a run with a silently defaulted value.
#
# Inputs: EAL (the binary), ARGS (the ;-separated arguments).

execute_process(COMMAND ${EAL} ${ARGS} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "eal: error: malformed")
  message(FATAL_ERROR "eal ${ARGS}: exit ${rc}, stderr: ${err}")
endif()
