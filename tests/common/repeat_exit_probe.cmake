# Run PROBE in RUNS fresh processes; fail on the first non-zero exit
# (a crash shows up as a signal name in the result variable).
#   cmake -DPROBE=<path> -DRUNS=<n> -P repeat_exit_probe.cmake
if(NOT PROBE OR NOT RUNS)
  message(FATAL_ERROR "usage: cmake -DPROBE=<path> -DRUNS=<n> -P ${CMAKE_SCRIPT_MODE_FILE}")
endif()
foreach(run RANGE 1 ${RUNS})
  execute_process(COMMAND "${PROBE}" RESULT_VARIABLE result
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT result EQUAL 0)
    message(FATAL_ERROR
      "run ${run}/${RUNS} of ${PROBE} exited with '${result}'\n${out}${err}")
  endif()
endforeach()
message(STATUS "${RUNS} runs of ${PROBE} exited cleanly")
