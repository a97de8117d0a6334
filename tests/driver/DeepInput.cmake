# Writes one deep input and requires `eal CMD` to exit 0 on it: every
# pass recurses as deep as the source nests, and so do the printers and
# the bytecode compiler; each of these inputs crashed some pass on the
# default 8 MB stack (tests/driver/PipelineTest.cpp runs them on both
# engines).
#
# Inputs: EAL (the binary), CMD (the eal command), KIND (parens, list or
# sum), COUNT (nesting depth, elements or terms), OUT (scratch file for
# the program).

math(EXPR less "${COUNT} - 1")
if(KIND STREQUAL "parens")
  string(REPEAT "(" ${COUNT} open)
  string(REPEAT ")" ${COUNT} close)
  set(source "${open}1${close}")
elseif(KIND STREQUAL "list")
  string(REPEAT "1, " ${less} elements)
  set(source "[${elements}1]")
elseif(KIND STREQUAL "sum")
  string(REPEAT "1+" ${less} terms)
  set(source "${terms}1")
else()
  message(FATAL_ERROR "unknown deep input '${KIND}'")
endif()
file(WRITE ${OUT} "${source}\n")
execute_process(COMMAND ${EAL} ${CMD} ${OUT} RESULT_VARIABLE rc OUTPUT_QUIET)
file(REMOVE ${OUT})
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
          "eal ${CMD} of the deep ${KIND} input (${COUNT}) exited with ${rc}")
endif()
