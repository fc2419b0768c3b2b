# Runs gridbw_sim on bad traces, bad settings and unknown flags and requires
# exit code 2 for each (a named usage error, not an abort and not a silent
# run).
#
#   cmake -DSIM=<gridbw_sim> -DDATA=<dir> -P sim_rejects_bad_trace.cmake
#
# With -DTRACE=<file in DATA> [-DSCHEDULER=<spec>] it checks that one trace
# only, under that scheduler (default fcfs).
if(NOT DEFINED SCHEDULER)
  set(SCHEDULER fcfs)
endif()
function(expect_usage_error name)
  execute_process(
    COMMAND "${SIM}" ${ARGN} --scheduler=${SCHEDULER}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${name}: expected exit 2, got '${rc}'\n${out}${err}")
  endif()
  message(STATUS "${name}: exit 2: ${err}")
endfunction()

if(DEFINED TRACE)
  expect_usage_error(${TRACE} --trace-in=${DATA}/${TRACE} --ports=4)
  return()
endif()

foreach(trace trace_malformed_row.csv trace_port_out_of_range.csv)
  expect_usage_error(${trace} --trace-in=${DATA}/${trace} --ports=4)
endforeach()

# Flag values: not a number, trailing junk after a number, port counts
# below 1, and non-finite durations.
expect_usage_error(ports-abc --ports=abc)
expect_usage_error(ports-trailing-junk --ports=4x)
expect_usage_error(ports-negative --ports=-1)
expect_usage_error(ports-zero --ports=0)
expect_usage_error(horizon-inf --horizon=inf --interarrival=1)
expect_usage_error(horizon-nan --horizon=nan)
expect_usage_error(interarrival-inf --interarrival=inf)

# A flag the simulator does not know is an error, not a run on defaults:
# a misspelt --seed, and --rigid, which does not exist (--slack=1 is rigid).
expect_usage_error(unknown-flag-seeds --seeds=5)
expect_usage_error(unknown-flag-rigid --rigid)
# A bare argument is not a scheduler spec (that is --scheduler=fcfs).
expect_usage_error(positional-arg fcfs)

# The same strict parser reads INI settings.
set(ini "${CMAKE_CURRENT_BINARY_DIR}/sim_rejects_bad_settings.ini")
file(WRITE "${ini}" "[workload]\nhorizon = inf\n")
expect_usage_error(config-horizon-inf --config=${ini})
file(REMOVE "${ini}")
