// Exit-race probe: spin up a 4-worker pool with telemetry on, run one
// parallel region, and return from main() at once.  The telemetry
// Registry is a function-local static destroyed before the pool joins
// its workers, so a worker that touches the Registry after the region
// completes (or on its own start-up) crashes or trips ASan during exit.
// tests/common/repeat_exit_probe.cmake runs this many times in fresh
// processes; one non-zero exit fails the case.
#include <atomic>
#include <cstddef>

#include "common/parallel.h"
#include "telemetry/telemetry.h"

int main() {
  memcim::telemetry::set_enabled(true);
  memcim::set_parallel_threads(4);
  std::atomic<std::size_t> visited{0};
  memcim::parallel_for_chunks(0, 64, 1, [&](std::size_t lo, std::size_t hi) {
    visited.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  return visited.load() == 64 ? 0 : 1;
}
