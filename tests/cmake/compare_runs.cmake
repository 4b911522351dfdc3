# Runs a driver twice — with ARGS, then with ARGS plus VARIANT — and
# requires both to pass with byte-identical stdout. The fault matrices use
# it for two pins: VARIANT=--legacy-queue (the legacy heap must replay the
# timer wheel's schedule exactly, DESIGN.md §5h) and VARIANT=--shake=0 (the
# default seed spelled out, so it pins rerun determinism, DESIGN.md §5k).
#
# Usage: cmake -D DRIVER=<exe> -D "ARGS=<args>" -D "VARIANT=<args>"
#              -P compare_runs.cmake
foreach(var DRIVER ARGS VARIANT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_runs.cmake: -D ${var}=... required")
  endif()
endforeach()
separate_arguments(base_args UNIX_COMMAND "${ARGS}")
separate_arguments(variant_args UNIX_COMMAND "${VARIANT}")

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

run_driver(plain_out ${base_args})
run_driver(variant_out ${base_args} ${variant_args})

if(NOT plain_out STREQUAL variant_out)
  message(FATAL_ERROR
          "${VARIANT} diverged from ${DRIVER} ${ARGS}\n"
          "--- plain ---\n${plain_out}\n"
          "--- ${VARIANT} ---\n${variant_out}")
endif()

message(STATUS "${VARIANT} byte-identical on ${DRIVER} ${ARGS}")
