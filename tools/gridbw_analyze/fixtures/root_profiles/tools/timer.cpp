// Fixture: the tools/ profile keeps wall-clock on (layering is the check
// relaxed there).
#include <chrono>

namespace fixture {

long tool_clock() {
  return std::chrono::steady_clock::now().time_since_epoch().count();  // finding
}

}  // namespace fixture
