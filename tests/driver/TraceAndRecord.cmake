# Runs `eal run EXAMPLE --trace=TRACE --record=REC` and requires both
# files: TRACE a JSON array whose "B" and "E" events balance, REC a
# recording whose counters `eal timeline` reconciles with the run's.
#
# Inputs: EAL (the binary), EXAMPLE (the program), TRACE, REC (the
# output paths).

file(REMOVE ${TRACE} ${REC})
execute_process(COMMAND ${EAL} run ${EXAMPLE} --trace=${TRACE}
                        --record=${REC}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS ${TRACE} OR NOT EXISTS ${REC})
  message(FATAL_ERROR "eal run --trace --record: exit ${rc}, stderr: ${err}")
endif()

file(READ ${TRACE} trace)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19) # string(JSON)
  string(JSON events ERROR_VARIABLE json_err LENGTH "${trace}")
  if(json_err OR events EQUAL 0)
    message(FATAL_ERROR "${TRACE} is not a non-empty JSON array: ${json_err}")
  endif()
endif()
string(REGEX MATCHALL "\"ph\":\"B\"" begins "${trace}")
string(REGEX MATCHALL "\"ph\":\"E\"" ends "${trace}")
list(LENGTH begins nbegins)
list(LENGTH ends nends)
if(NOT nbegins EQUAL nends)
  message(FATAL_ERROR "${TRACE}: ${nbegins} B events, ${nends} E events")
endif()

execute_process(COMMAND ${EAL} timeline ${REC}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT out MATCHES "counters reconcile: yes")
  message(FATAL_ERROR "eal timeline ${REC}: exit ${rc}, ${out}${err}")
endif()
