// Fixture: gridbw:hot roots (depth 0) must not throw or allocate; the sink
// call is hot-call-unresolved's finding. Unannotated functions are free.
#include <memory>
#include <stdexcept>

namespace fixture {

struct Sink {
  virtual ~Sink() = default;
  virtual void record(int event) = 0;
};

// gridbw:hot
int bad_hot(int a, Sink* sink) {
  if (a < 0) throw std::invalid_argument{"negative"};
  auto owned = std::make_unique<int>(a);
  int* raw = new int{*owned};
  sink->record(*raw);
  delete raw;
  return a;
}

// gridbw:hot
int ok_hot(int a, int b) {
  int best = a > b ? a : b;
  return best + a;
}

// gridbw:hot
int allowed_hot(int a) {
  // GRIDBW-ALLOW(hot-propagation): cold error branch, measured negligible
  if (a < 0) throw std::invalid_argument{"negative"};
  return a;
}

int unannotated(int a) {
  if (a < 0) throw std::invalid_argument{"negative"};
  return *std::make_unique<int>(a);
}

}  // namespace fixture
