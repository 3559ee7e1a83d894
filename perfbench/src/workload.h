// The benchmark's workload interface and metric catalogue.
//
// A workload does its set-up when it is made (input generation, first
// fabric build, warm-up that fills the program's caches) and then runs
// measured rounds.  Every round repeats the same operations on fresh
// program state, so its simulated results and its work counts repeat
// exactly from round to round.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "noc/mesh.h"
#include "telemetry/telemetry.h"

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Every per-layer metric the traced run prints, with its unit.  Metrics
/// of a layer the workload does not reach read 0.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
per_layer_catalogue();

struct RoundResult {
  double host_s = 0.0;  ///< host time of the measured program calls
  std::uint64_t attempted = 0;
  CheckReport check;
  /// Simulated-clock results: must repeat exactly in every round.
  MetricMap sim;
  /// Per-layer metrics the workload measures itself (traced runs).
  MetricMap layers;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One measured round.  `traced` says telemetry is on, so the round
  /// may read span aggregates and counters.
  [[nodiscard]] virtual RoundResult round(bool traced) = 0;

  /// Operations checked during set-up (a calibration), and their report.
  std::uint64_t setup_attempted = 0;
  CheckReport setup_check;
};

[[nodiscard]] std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_table2_batch(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<Workload> make_crossbar_vmm(std::uint64_t seed);

/// Seconds between two telemetry snapshots of a span's inclusive time.
[[nodiscard]] double span_s(const memcim::telemetry::MetricsSnapshot& after,
                            const memcim::telemetry::MetricsSnapshot& before,
                            const std::string& span);

/// Counter difference between two snapshots.
[[nodiscard]] std::uint64_t counter_delta(
    const memcim::telemetry::MetricsSnapshot& after,
    const memcim::telemetry::MetricsSnapshot& before, const std::string& name);

/// The per-layer metrics read from program counters and span aggregates
/// alone (arch, device, logic/isa, workloads, crossbar).
[[nodiscard]] MetricMap counter_layers(
    const memcim::telemetry::MetricsSnapshot& after,
    const memcim::telemetry::MetricsSnapshot& before);

/// The noc.* per-layer metrics of the NoC traffic between two snapshots
/// of one fabric's books, with the host time of its replay (`replay_s`).
[[nodiscard]] MetricMap noc_layers(const memcim::NocStats& after,
                                   const memcim::NocStats& before,
                                   double replay_s);

/// Nearest-rank percentile (q in (0, 100]) of unsorted samples.
[[nodiscard]] double percentile(std::vector<std::uint64_t> samples, double q);

/// Seconds on the steady clock since `start`.
[[nodiscard]] double seconds_since(std::uint64_t start_ns);
[[nodiscard]] std::uint64_t steady_ns();

}  // namespace perfbench
