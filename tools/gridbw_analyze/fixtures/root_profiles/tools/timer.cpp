// Fixture: the tools/ profile runs the full catalogue, wall-clock included
// (only bench/ relaxes it).
#include <chrono>

namespace fixture {

long tool_clock() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // finding
}

}  // namespace fixture
