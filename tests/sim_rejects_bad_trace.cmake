# Runs gridbw_sim --trace-in on each bad trace and requires exit code 2
# (a named usage error, not an abort).
#
#   cmake -DSIM=<gridbw_sim> -DDATA=<dir> -P sim_rejects_bad_trace.cmake
foreach(trace trace_malformed_row.csv trace_port_out_of_range.csv)
  execute_process(
    COMMAND "${SIM}" --trace-in=${DATA}/${trace} --ports=4 --scheduler=fcfs
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${trace}: expected exit 2, got '${rc}'\n${out}${err}")
  endif()
  message(STATUS "${trace}: exit 2: ${err}")
endforeach()
