// gridbw.hpp — umbrella header for the gridbw library.
//
// gridbw reproduces "Optimal Bandwidth Sharing in Grid Environments"
// (Marchal, Vicat-Blanc Primet, Robert, Zeng — HPDC 2006): admission
// control and bandwidth assignment for short-lived bulk-transfer requests
// at the access points of a grid overlay network.
//
// Typical use:
//
//   #include "gridbw.hpp"
//   using namespace gridbw;
//
//   Network net = Network::uniform(10, 10, Bandwidth::gigabytes_per_second(1));
//   Rng rng{42};
//   workload::WorkloadSpec spec;                       // paper defaults
//   auto requests = workload::generate(spec, rng);
//   auto result = heuristics::schedule_flexible_window(
//       net, requests, {.step = Duration::seconds(400),
//                       .policy = heuristics::BandwidthPolicy::fraction_of_max(0.8)});
//   double rate = metrics::accept_rate(requests, result.schedule);

#pragma once

#include "util/config.hpp"
#include "util/flags.hpp"
#include "util/histogram.hpp"
#include "util/parse.hpp"
#include "util/quantity.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

#include "core/ids.hpp"
#include "core/ledger.hpp"
#include "core/network.hpp"
#include "core/request.hpp"
#include "core/schedule.hpp"
#include "core/schedule_io.hpp"
#include "core/timeline_profile.hpp"
#include "core/validate.hpp"

#include "dataplane/replay.hpp"
#include "flow/maxflow.hpp"
#include "longlived/longlived.hpp"

#include "workload/generator.hpp"
#include "workload/load.hpp"
#include "workload/mixture.hpp"
#include "workload/scenario.hpp"
#include "workload/spec.hpp"
#include "workload/trace.hpp"
#include "workload/volume_law.hpp"

#include "heuristics/bandwidth_policy.hpp"
#include "heuristics/compact.hpp"
#include "heuristics/distributed.hpp"
#include "heuristics/flexible_bookahead.hpp"
#include "heuristics/flexible_greedy.hpp"
#include "heuristics/flexible_window.hpp"
#include "heuristics/parse.hpp"
#include "heuristics/registry.hpp"
#include "heuristics/retry.hpp"
#include "heuristics/rigid_fcfs.hpp"
#include "heuristics/rigid_slots.hpp"

#include "exact/bnb.hpp"
#include "exact/single_pair.hpp"
#include "exact/threedm.hpp"

#include "baseline/fluid.hpp"
#include "baseline/maxmin.hpp"

#include "control/control_plane.hpp"
#include "control/messages.hpp"
#include "control/policer.hpp"
#include "control/token_bucket.hpp"
#include "control/topology.hpp"

#include "metrics/experiment.hpp"
#include "metrics/objectives.hpp"
