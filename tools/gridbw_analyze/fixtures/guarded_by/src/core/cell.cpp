// Fixture: gridbw:guarded_by fields touched with and without the mutex held.
#include <mutex>

namespace fixture {

struct Cell {
  std::mutex mu;
  int applied{0};  // gridbw:guarded_by(mu)
  int capacity{0};  // unannotated: free to touch anywhere

  void good() {
    std::scoped_lock lock{mu};
    applied += 1;
  }

  void bad() {
    applied += 1;  // finding: mu not held
    capacity += 1;
  }

  void allowed() {
    // GRIDBW-ALLOW(guarded-by): fixture-only suppression demo
    applied = 0;
  }
};

}  // namespace fixture
