# Runs figure benches with flags they do not take and requires exit 2 before
# any run starts: no table banner ("===") on stdout.
#
#   cmake -DBENCH_DIR=<build>/bench -P bench_rejects_unknown_flag.cmake
function(expect_usage_error bench)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 20)
  if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "${bench} ${ARGN}: expected exit 2, got '${rc}'\n${out}${err}")
  endif()
  if(out MATCHES "===")
    message(FATAL_ERROR "${bench} ${ARGN}: ran before rejecting the flag\n${out}")
  endif()
  message(STATUS "${bench} ${ARGN}: exit 2: ${err}")
endfunction()

expect_usage_error(flex_profile --help)
expect_usage_error(flex_profile --quick --rep=2)
expect_usage_error(flex_profile --quick extra)
# Each bench's own key is known to that bench only.
expect_usage_error(churn_bench --quick --scale=1000)
expect_usage_error(engine_speedup --quick --requests=1000)
