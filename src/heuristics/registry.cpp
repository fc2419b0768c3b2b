#include "heuristics/registry.hpp"

#include <array>
#include <cstdio>

#include "heuristics/flexible_greedy.hpp"
#include "heuristics/rigid_fcfs.hpp"

namespace gridbw::heuristics {

std::vector<NamedScheduler> rigid_schedulers() {
  return {make_fcfs(), make_slots(SlotCost::kCumulated),
          make_slots(SlotCost::kMinBandwidth), make_slots(SlotCost::kMinVolume)};
}

NamedScheduler make_fcfs() {
  return NamedScheduler{
      "FCFS", [](const Network& n, std::span<const Request> r, obs::Observer* observer) {
        return schedule_rigid_fcfs(n, r, observer);
      }};
}

NamedScheduler make_slots(SlotCost cost) {
  return NamedScheduler{
      to_string(cost),
      [cost](const Network& n, std::span<const Request> r, obs::Observer* observer) {
        return schedule_rigid_slots(n, r, cost, observer);
      }};
}

NamedScheduler make_bookahead(BookAheadOptions options) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "bookahead%.0f", options.step.to_seconds());
  return NamedScheduler{
      std::string{buf.data()} + "x" + std::to_string(options.max_book_ahead) + "/" +
          options.policy.name(),
      [options](const Network& n, std::span<const Request> r, obs::Observer* observer) {
        return schedule_flexible_bookahead(n, r, options, observer);
      }};
}

NamedScheduler make_greedy(BandwidthPolicy policy) {
  return NamedScheduler{
      "greedy/" + policy.name(),
      [policy](const Network& n, std::span<const Request> r, obs::Observer* observer) {
        return schedule_flexible_greedy(n, r, policy, observer);
      }};
}

NamedScheduler make_window(WindowOptions options) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "window%.0f/", options.step.to_seconds());
  return NamedScheduler{
      std::string{buf.data()} + options.policy.name(),
      [options](const Network& n, std::span<const Request> r, obs::Observer* observer) {
        return schedule_flexible_window(n, r, options, observer);
      }};
}

NamedScheduler make_malleable_greedy(MalleableOptions options) {
  return NamedScheduler{
      "mgreedy/" + options.policy.name() + (options.reshape ? "" : "-rigid"),
      [options](const Network& n, std::span<const Request> r, obs::Observer* observer) {
        return schedule_malleable_greedy(n, r, options, observer);
      }};
}

NamedScheduler make_malleable_window(MalleableOptions options) {
  std::array<char, 64> buf{};
  std::snprintf(buf.data(), buf.size(), "mwindow%.0f/", options.step.to_seconds());
  return NamedScheduler{
      std::string{buf.data()} + options.policy.name() +
          (options.reshape ? "" : "-rigid"),
      [options](const Network& n, std::span<const Request> r, obs::Observer* observer) {
        return schedule_malleable_window(n, r, options, observer);
      }};
}

}  // namespace gridbw::heuristics
