# Runs a driver and checks its stdout, in one of two modes:
#
#   VARIANT=<args>   run it with ARGS, then with ARGS plus VARIANT; both must
#                    pass with byte-identical stdout. The fault matrices use
#                    it with VARIANT=--shake=0 (the default seed spelled
#                    out, so it pins rerun determinism, DESIGN.md §5k).
#   EXPECTED=<file>  run it with ARGS plus each argument of EACH in turn
#                    (with ARGS alone if EACH is empty); each run must pass,
#                    and their stdout, concatenated, must equal the file
#                    byte for byte. The fault matrices pin their seed 1-3
#                    transcripts under tests/golden/ this way, so a change
#                    that moves any simulated schedule fails here.
#
# Usage: cmake -D DRIVER=<exe> -D "ARGS=<args>" -D "VARIANT=<args>"
#              -P compare_runs.cmake
#        cmake -D DRIVER=<exe> -D "ARGS=<args>" [-D "EACH=<args>"]
#              -D EXPECTED=<file> -P compare_runs.cmake
foreach(var DRIVER ARGS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_runs.cmake: -D ${var}=... required")
  endif()
endforeach()
if((DEFINED VARIANT AND DEFINED EXPECTED) OR
   (NOT DEFINED VARIANT AND NOT DEFINED EXPECTED))
  message(FATAL_ERROR "compare_runs.cmake: give exactly one of -D VARIANT=... "
                      "and -D EXPECTED=...")
endif()
separate_arguments(base_args UNIX_COMMAND "${ARGS}")

function(run_driver out_var)
  execute_process(COMMAND "${DRIVER}" ${ARGN}
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    string(REPLACE ";" " " shown "${ARGN}")
    message(FATAL_ERROR "${DRIVER} ${shown} failed rc=${rc}\n${out}${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

if(DEFINED EXPECTED)
  separate_arguments(each_args UNIX_COMMAND "${EACH}")
  set(actual "")
  if(each_args)
    foreach(arg IN LISTS each_args)
      run_driver(out ${base_args} ${arg})
      string(APPEND actual "${out}")
    endforeach()
  else()
    run_driver(actual ${base_args})
  endif()
  file(READ "${EXPECTED}" expected)
  if(NOT actual STREQUAL expected)
    get_filename_component(name "${EXPECTED}" NAME)
    set(actual_file "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
    file(WRITE "${actual_file}" "${actual}")
    message(FATAL_ERROR
            "${DRIVER} ${ARGS} [${EACH}] no longer prints ${EXPECTED}.\n"
            "Its output is in ${actual_file}; diff the two. If the change "
            "is intended, copy it over the expected file and say why in "
            "the commit.")
  endif()
  message(STATUS "${DRIVER} ${ARGS} [${EACH}] matches ${EXPECTED}")
  return()
endif()

separate_arguments(variant_args UNIX_COMMAND "${VARIANT}")
run_driver(plain_out ${base_args})
run_driver(variant_out ${base_args} ${variant_args})

if(NOT plain_out STREQUAL variant_out)
  message(FATAL_ERROR
          "${VARIANT} diverged from ${DRIVER} ${ARGS}\n"
          "--- plain ---\n${plain_out}\n"
          "--- ${VARIANT} ---\n${variant_out}")
endif()

message(STATUS "${VARIANT} byte-identical on ${DRIVER} ${ARGS}")
