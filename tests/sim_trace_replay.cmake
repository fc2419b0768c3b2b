# Runs gridbw_sim on a generated workload with --trace-out, replays the
# trace with --trace-in, and requires the two --schedule-out CSVs to be
# identical: a written trace must give back the very doubles the generator
# drew.
#
#   cmake -DSIM=<gridbw_sim> -DWORK=<scratch dir> -P sim_trace_replay.cmake
file(MAKE_DIRECTORY "${WORK}")
foreach(seed 1 2 3 4 5 6)
  set(trace "${WORK}/replay_trace_${seed}.csv")
  set(generated "${WORK}/replay_generated_${seed}.csv")
  set(replayed "${WORK}/replay_replayed_${seed}.csv")
  execute_process(
    COMMAND "${SIM}" --scheduler=cumulated --interarrival=0.5 --horizon=4000
            --seed=${seed} --trace-out=${trace} --schedule-out=${generated}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "seed ${seed}: generating run exited '${rc}'\n${err}")
  endif()
  execute_process(
    COMMAND "${SIM}" --scheduler=cumulated --trace-in=${trace}
            --schedule-out=${replayed}
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "seed ${seed}: replaying run exited '${rc}'\n${err}")
  endif()
  file(READ "${generated}" want)
  file(READ "${replayed}" got)
  if(NOT want STREQUAL got)
    message(FATAL_ERROR "seed ${seed}: the replayed schedule differs from the generated one")
  endif()
  file(REMOVE "${trace}" "${generated}" "${replayed}")
endforeach()
