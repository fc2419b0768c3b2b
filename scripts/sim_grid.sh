#!/usr/bin/env bash
# Byte-identity grid: runs a fixed set of gridbw_sim runs, 4 at a time, and
# writes each run's stdout (OUT/<run>.txt, without the "schedule written to"
# line, which names OUT) and its schedule (OUT/<run>.csv). It then writes the
# stdout of the programs that run the fluid baseline, both data-plane replays
# and the reservation control plane (OUT/<program>.txt, default flags; their
# tables hold no timings and do not depend on the thread count).
#
#   scripts/sim_grid.sh BUILD OUT
#
# BUILD is a build directory holding examples/gridbw_sim and those programs.
# Exits 1 if any run fails or reports a schedule validity other than
# "valid". To check that a change keeps every decision, run it on the
# parent's build and on the change's build and `diff -r` the two OUT
# directories.
#
# The grid: every scheduler spec below (rigid, greedy, WINDOW, BOOK-AHEAD,
# malleable, and GREEDY with --retries=3) at three flexible loads, the rigid
# specs also at two rigid loads (10 and 3 ports), seeds 1-4, plus two long
# mwindow:step=400,minrate runs (seeds 8 and 21 at --interarrival=50), where
# a flow's profile collapses to one step at its admission instant.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD OUT" >&2
  exit 2
fi
build="$(cd "$1" && pwd)"
sim="$build/examples/gridbw_sim"
programs=(bench/baseline_maxmin_vs_admission bench/replay_enforcement
          bench/ctrl_policing examples/control_plane_demo)
out="$2"
if [[ ! -x "$sim" ]]; then
  echo "sim_grid: no gridbw_sim at $sim" >&2
  exit 2
fi
mkdir -p "$out"
out="$(cd "$out" && pwd)"

rigid_specs=(fcfs cumulated minbw minvol)
specs=("${rigid_specs[@]}" greedy:f=0.8 greedy:minrate window:step=400,f=0.8
       window:step=100 bookahead:step=100,ahead=4,f=1 mgreedy:minrate
       mgreedy:minrate,rigid mwindow:step=400 mwindow:step=100)
flexible_loads=("--interarrival=50 --horizon=800000"
                "--interarrival=5 --horizon=80000"
                "--interarrival=0.5 --horizon=20000")
rigid_loads=("--interarrival=0.2 --horizon=20000 --slack=1"
             "--interarrival=0.2 --horizon=20000 --slack=1 --ports=3")

# One job per line: the sim's arguments, scheduler first.
jobs=()
for seed in 1 2 3 4; do
  for load in "${flexible_loads[@]}"; do
    for spec in "${specs[@]}"; do
      jobs+=("--scheduler=$spec $load --seed=$seed")
    done
    jobs+=("--retries=3 $load --seed=$seed")
  done
  for load in "${rigid_loads[@]}"; do
    for spec in "${rigid_specs[@]}"; do
      jobs+=("--scheduler=$spec $load --seed=$seed")
    done
  done
done
for seed in 8 21; do
  jobs+=("--scheduler=mwindow:step=400,minrate ${flexible_loads[0]} --slack=4 --seed=$seed")
done

run_one() {
  local args="$1"
  local name
  name="$(tr -c 'A-Za-z0-9.\n' '_' <<<"${args//--/}")"
  # shellcheck disable=SC2086  # $args is a list of flags
  if ! "$SIM_GRID_SIM" $args --schedule-out="$SIM_GRID_OUT/$name.csv" \
      >"$SIM_GRID_OUT/$name.raw" 2>&1; then
    echo "FAILED: gridbw_sim $args" >&2
    return 1
  fi
  grep -v '^schedule written to ' "$SIM_GRID_OUT/$name.raw" >"$SIM_GRID_OUT/$name.txt"
  rm "$SIM_GRID_OUT/$name.raw"
  if ! grep -qx 'schedule validity  : valid' "$SIM_GRID_OUT/$name.txt"; then
    echo "INVALID: gridbw_sim $args" >&2
    return 1
  fi
}
export -f run_one
export SIM_GRID_SIM="$sim" SIM_GRID_OUT="$out"

status=0
printf '%s\n' "${jobs[@]}" | xargs -d '\n' -n 1 -P 4 bash -c 'run_one "$1"' _ || status=1
for program in "${programs[@]}"; do
  if ! "$build/$program" >"$out/$(basename "$program").txt" 2>&1; then
    echo "FAILED: $program" >&2
    status=1
  fi
done
runs="${#jobs[@]} runs and ${#programs[@]} programs"
if [[ $status -ne 0 ]]; then
  echo "sim_grid: $runs in $out, some FAILED or INVALID" >&2
else
  echo "sim_grid: $runs in $out"
fi
exit "$status"
