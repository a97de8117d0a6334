# Compares the collapsed stacks of `eal profile EXAMPLE --folded` with the
# golden tests/prof/golden/<example>.folded. A profile too large to check
# in (gc_stress's runs to about 300 MB) is pinned by its SHA-256 in
# <example>.folded.sha256 instead. Regenerate deliberately with
#
#   EAL_UPDATE_GOLDEN=1 ctest -R prof_folded_golden
#
# and review the diff like any other source change.
#
# Inputs: EAL (the binary), EXAMPLE (the .nml file), STDLIB (ON to pass
# --stdlib), GOLDEN_DIR, OUT (scratch file for the actual output).

set(args profile ${EXAMPLE} --folded=${OUT})
if(STDLIB)
  list(APPEND args --stdlib)
endif()
execute_process(COMMAND ${EAL} ${args} RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "eal ${args} exited with ${rc}")
endif()

get_filename_component(stem ${EXAMPLE} NAME_WE)
set(golden ${GOLDEN_DIR}/${stem}.folded)
if(EXISTS ${golden}.sha256)
  file(SHA256 ${OUT} actual)
  if(DEFINED ENV{EAL_UPDATE_GOLDEN})
    file(WRITE ${golden}.sha256 "${actual}\n")
  endif()
  file(STRINGS ${golden}.sha256 expected LIMIT_COUNT 1)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "folded stacks of ${stem} drifted: sha256 ${actual}, "
                        "golden ${expected}")
  endif()
else()
  if(DEFINED ENV{EAL_UPDATE_GOLDEN})
    configure_file(${OUT} ${golden} COPYONLY)
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${golden}
                  RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "folded stacks of ${stem} drifted from ${golden}")
  endif()
endif()
file(REMOVE ${OUT})
