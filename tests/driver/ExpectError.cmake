# Runs `eal ARGS...` and requires it to fail with a diagnostic: exit code
# RC and ERR on stderr, never a crash or a silent success.
#
# Inputs: EAL (the binary), ARGS (the ;-separated arguments), RC (the
# expected exit code), ERR (text stderr must contain).

execute_process(COMMAND ${EAL} ${ARGS} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE err)
string(FIND "${err}" "${ERR}" at)
if(NOT rc EQUAL RC OR at EQUAL -1)
  message(FATAL_ERROR "eal ${ARGS}: exit ${rc}, stderr: ${err}")
endif()
