#include <algorithm>
#include <chrono>
#include <cmath>

#include "workload.h"

namespace perfbench {

namespace tm = memcim::telemetry;

const std::vector<std::pair<std::string, std::string>>& per_layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      // Simulated clock (deterministic per seed; 0 where the workload
      // has no such operation).
      {"sim_latency_p50_ns", "ns"},
      {"sim_latency_p99_ns", "ns"},
      {"sim_energy_fj_per_request", "fJ"},
      {"sim_add_ns_per_op", "ns"},
      {"sim_add_fj_per_op", "fJ"},
      {"sim_search_ns_per_query", "ns"},
      {"sim_search_fj_per_query", "fJ"},
      // Host time of the measured calls with telemetry on.
      {"traced.host_s", "s"},
      // serving
      {"serving.loop_self_s", "s"},
      {"serving.batches", "count"},
      {"serving.mean_lanes", "lanes"},
      {"serving.queue_wait_p99_ns", "ns"},
      {"serving.service_p99_ns", "ns"},
      // noc
      {"noc.replay_s", "s"},
      {"noc.cycles", "count"},
      {"noc.packets", "count"},
      {"noc.flits", "count"},
      {"noc.flit_hops", "count"},
      {"noc.credit_stalls", "count"},
      {"noc.ns_per_cycle", "ns"},
      // arch / device
      {"arch.parallel_compare_s", "s"},
      {"arch.compares", "count"},
      {"device.crs_pulses", "count"},
      {"device.crs_transitions", "count"},
      // logic / isa
      {"logic.packed_runs", "count"},
      {"logic.packed_windows", "count"},
      {"logic.adder_ops", "count"},
      {"isa.cache_hit_ratio", "ratio"},
      {"isa.cache_lookups", "count"},
      // workloads
      {"workloads.sharded_add_s", "s"},
      {"workloads.sharded_search_s", "s"},
      {"workloads.shard_compute_s", "s"},
      // crossbar
      {"crossbar.assemble_s", "s"},
      {"crossbar.linear_solve_s", "s"},
      {"crossbar.solve_self_s", "s"},
      {"crossbar.sweeps_per_solve", "count"},
      {"crossbar.cg_iterations_per_solve", "count"},
      {"crossbar.warm_start_hits", "count"},
      // common (thread pool, from one round at the untraced thread count)
      {"parallel.jobs", "count"},
      {"parallel.serial_regions", "count"},
      {"parallel.busy_s", "s"},
  };
  return kCatalogue;
}

std::uint64_t counter_delta(const tm::MetricsSnapshot& after,
                            const tm::MetricsSnapshot& before,
                            const std::string& name) {
  const std::uint64_t a = after.counter(name);
  const std::uint64_t b = before.counter(name);
  return a >= b ? a - b : 0;
}

double span_s(const tm::MetricsSnapshot& after,
              const tm::MetricsSnapshot& before, const std::string& span) {
  return static_cast<double>(counter_delta(after, before, span + ".ns")) * 1e-9;
}

MetricMap counter_layers(const tm::MetricsSnapshot& after,
                         const tm::MetricsSnapshot& before) {
  const auto count = [&](const std::string& name) {
    return static_cast<double>(counter_delta(after, before, name));
  };
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  MetricMap m;
  m["arch.parallel_compare_s"] = {
      span_s(after, before, "cim_tile.parallel_compare"), "s"};
  m["arch.compares"] = {count("cim_tile.compare.ops"), "count"};
  m["device.crs_pulses"] = {count("crs_cell.pulses"), "count"};
  m["device.crs_transitions"] = {count("crs_cell.transitions"), "count"};

  m["logic.packed_runs"] = {count("logic.packed.runs"), "count"};
  m["logic.packed_windows"] = {count("logic.packed.windows"), "count"};
  m["logic.adder_ops"] = {count("logic.packed.adder_ops"), "count"};
  const double hits = count("compiler.cache.hits");
  const double lookups = hits + count("compiler.cache.misses");
  m["isa.cache_hit_ratio"] = {per(hits, lookups), "ratio"};
  m["isa.cache_lookups"] = {lookups, "count"};

  m["workloads.sharded_add_s"] = {span_s(after, before, "workload.sharded_add"),
                                  "s"};
  m["workloads.sharded_search_s"] = {
      span_s(after, before, "workload.sharded_search"), "s"};
  m["workloads.shard_compute_s"] = {
      span_s(after, before, "workload.shard_compute"), "s"};

  const double solve_s = span_s(after, before, "crossbar.solve_distributed") +
                         span_s(after, before, "crossbar.solve_lumped");
  const double assemble_s = span_s(after, before, "crossbar.assemble");
  const double linear_s = span_s(after, before, "crossbar.linear_solve");
  const double solves = count("crossbar.solve.count");
  m["crossbar.assemble_s"] = {assemble_s, "s"};
  m["crossbar.linear_solve_s"] = {linear_s, "s"};
  m["crossbar.solve_self_s"] = {std::max(0.0, solve_s - assemble_s - linear_s),
                                "s"};
  m["crossbar.sweeps_per_solve"] = {per(count("crossbar.solve.sweeps"), solves),
                                    "count"};
  m["crossbar.cg_iterations_per_solve"] = {
      per(count("solver.cg.iterations"), solves), "count"};
  m["crossbar.warm_start_hits"] = {count("crossbar.warm_start.hits"), "count"};
  return m;
}

MetricMap noc_layers(const memcim::NocStats& after,
                     const memcim::NocStats& before, double replay_s) {
  const auto count = [](std::uint64_t a, std::uint64_t b) {
    return Metric{static_cast<double>(a - b), "count"};
  };
  const std::uint64_t cycles = after.cycles - before.cycles;
  MetricMap m;
  m["noc.replay_s"] = {replay_s, "s"};
  m["noc.cycles"] = count(after.cycles, before.cycles);
  m["noc.packets"] = count(after.packets, before.packets);
  m["noc.flits"] = count(after.flits, before.flits);
  m["noc.flit_hops"] = count(after.flit_hops, before.flit_hops);
  m["noc.credit_stalls"] = count(after.credit_stalls, before.credit_stalls);
  m["noc.ns_per_cycle"] = {
      cycles > 0 ? replay_s * 1e9 / static_cast<double>(cycles) : 0.0, "ns"};
  return m;
}

double percentile(std::vector<std::uint64_t> samples, double q) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(samples.size())));
  const std::size_t index = std::clamp<std::size_t>(rank, 1, samples.size()) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return static_cast<double>(samples[index]);
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(steady_ns() - start_ns) * 1e-9;
}

}  // namespace perfbench
