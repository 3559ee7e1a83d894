// serve_mix: an open-loop arrival trace replayed through
// serving::WorkloadService::run on the virtual clock, as fast as the
// host allows.  The shape is bench_serving's: a 2×2 fabric of 4-row,
// 16-bit tiles, 16-bit keys and operands, queues of 1024, a 5/5/90
// k-mer/CAM/add mix and a 100 ns mean arrival gap.
#include <algorithm>

#include "arch/tile_fabric.h"
#include "device/presets.h"
#include "serving/service.h"
#include "workload.h"

namespace perfbench {

namespace {

namespace tm = memcim::telemetry;
using memcim::TileFabric;
using memcim::TileFabricConfig;
using memcim::serving::Request;
using memcim::serving::ServiceRunResult;
using memcim::serving::ServingConfig;
using memcim::serving::WorkloadService;

constexpr std::size_t kKeyBits = 16;
constexpr std::size_t kRowsPerTile = 4;
constexpr std::size_t kWarmupRequests = 4096;

TileFabricConfig fabric_config() {
  TileFabricConfig cfg;
  cfg.width = 2;
  cfg.height = 2;
  cfg.tile.rows = kRowsPerTile;
  cfg.tile.row_bits = kKeyBits;
  cfg.tile.cell = memcim::presets::crs_cell();
  return cfg;
}

ServingConfig serving_config() {
  ServingConfig cfg;
  cfg.queue_capacity = 1024;
  cfg.workload.add_width = kKeyBits;
  cfg.workload.adders_per_tile = 4;
  cfg.workload.cam.rows = kRowsPerTile;
  cfg.workload.cam.word_bits = kKeyBits;
  cfg.workload.cam.cell = memcim::presets::crs_cell();
  return cfg;
}

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint64_t seed) {
    const std::size_t words = 4 * kRowsPerTile;  // 2×2 tiles
    expect_.add_width = kKeyBits;
    expect_.kmer_words = random_words(sub_seed(seed, 1), words, kKeyBits);
    expect_.cam_words = random_words(sub_seed(seed, 2), words, kKeyBits);
    ServeTraceShape shape;
    shape.key_bits = kKeyBits;
    shape.add_width = kKeyBits;
    trace_ = make_serve_trace(sub_seed(seed, 3), shape);
    // Warm-up on a throwaway fabric: compiles and caches the kernels the
    // replay uses, so rounds time steady-state serving only.
    const std::vector<Request> head(
        trace_.begin(),
        trace_.begin() + static_cast<std::ptrdiff_t>(
                             std::min(kWarmupRequests, trace_.size())));
    TileFabric fabric(fabric_config());
    WorkloadService svc(fabric, serving_config(), expect_.kmer_words,
                        expect_.cam_words);
    (void)svc.run(head);
  }

  RoundResult round(bool traced) override {
    RoundResult out;
    out.attempted = trace_.size();
    TileFabric fabric(fabric_config());
    WorkloadService svc(fabric, serving_config(), expect_.kmer_words,
                        expect_.cam_words);

    const tm::MetricsSnapshot before =
        traced ? tm::Registry::global().snapshot() : tm::MetricsSnapshot{};
    const std::uint64_t t0 = steady_ns();
    const ServiceRunResult result = svc.run(trace_);
    out.host_s = seconds_since(t0);
    const tm::MetricsSnapshot after =
        traced ? tm::Registry::global().snapshot() : tm::MetricsSnapshot{};

    out.check = check_serving(trace_, result, expect_);
    const memcim::MeshNoc& noc = fabric.noc();
    out.check.merge(check_noc_books(noc.deliveries(), noc.stats(),
                                    noc.width(), trace_.size()));

    std::vector<std::uint64_t> latency, queue_wait, service;
    latency.reserve(result.responses.size());
    queue_wait.reserve(result.responses.size());
    service.reserve(result.responses.size());
    for (const auto& r : result.responses) {
      latency.push_back(r.completed - r.arrival);
      queue_wait.push_back(r.dispatched - r.arrival);
      service.push_back(r.completed - r.dispatched);
    }
    const auto& stats = result.stats;
    const double completed = static_cast<double>(stats.completed());
    out.sim["sim_latency_p50_ns"] = {percentile(latency, 50.0), "ns"};
    out.sim["sim_latency_p99_ns"] = {percentile(latency, 99.0), "ns"};
    out.sim["sim_energy_fj_per_request"] = {
        completed > 0.0
            ? (stats.compute_energy + stats.noc_energy).value() * 1e15 /
                  completed
            : 0.0,
        "fJ"};
    if (!traced) return out;

    const double run_s = span_s(after, before, "serving.run");
    const double dispatch_s = span_s(after, before, "serving.dispatch");
    const double compute_s = span_s(after, before, "serving.shard_compute");
    const double replay_s = std::max(0.0, dispatch_s - compute_s);
    out.layers = counter_layers(after, before);
    out.layers["serving.loop_self_s"] = {std::max(0.0, run_s - dispatch_s), "s"};
    out.layers["serving.batches"] = {static_cast<double>(stats.batches),
                                     "count"};
    out.layers["serving.mean_lanes"] = {stats.mean_occupancy(), "lanes"};
    out.layers["serving.queue_wait_p99_ns"] = {percentile(queue_wait, 99.0),
                                               "ns"};
    out.layers["serving.service_p99_ns"] = {percentile(service, 99.0), "ns"};
    out.layers.merge(noc_layers(noc.stats(), memcim::NocStats{}, replay_s));
    return out;
  }

 private:
  ServeExpectation expect_;
  std::vector<Request> trace_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace perfbench
