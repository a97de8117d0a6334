# Writes one deep input and requires `eal analyze` to exit 0 on it: every
# pass recurses as deep as the source nests, and each of these crashed
# some pass on the default 8 MB stack (tests/driver/PipelineTest.cpp runs
# them on both engines).
#
# Inputs: EAL (the binary), KIND (parens, list or sum), OUT (scratch
# file for the program).

if(KIND STREQUAL "parens")
  string(REPEAT "(" 50000 open)
  string(REPEAT ")" 50000 close)
  set(source "${open}1${close}")
elseif(KIND STREQUAL "list")
  string(REPEAT "1, " 39999 elements)
  set(source "[${elements}1]")
elseif(KIND STREQUAL "sum")
  string(REPEAT "1+" 49999 terms)
  set(source "${terms}1")
else()
  message(FATAL_ERROR "unknown deep input '${KIND}'")
endif()
file(WRITE ${OUT} "${source}\n")
execute_process(COMMAND ${EAL} analyze ${OUT} RESULT_VARIABLE rc OUTPUT_QUIET)
file(REMOVE ${OUT})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "eal analyze of the deep ${KIND} input exited with ${rc}")
endif()
