// The memcim benchmark program: one workload per process.
//
//   perfbench --workload <serve_mix|table2_batch|crossbar_vmm>
//             --seed <n> --seconds <s> --trace <0|1>
//
// It makes the workload's inputs from the seed (set-up), then runs whole
// measured rounds until `seconds` have passed, checking every output.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 (telemetry off, kMaxThreads workers or fewer) the
// metrics are the end-to-end ones; with --trace 1 (telemetry on, one
// worker) they are the per-layer ones, plus one extra round at the
// untraced thread count for the thread-pool metrics.  The program sets
// telemetry and the thread count itself, before the pool exists, so
// MEMCIM_THREADS and MEMCIM_TELEMETRY in the environment have no effect.
// The exit code is 0 only when every check held.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "workload.h"

namespace {

using namespace perfbench;
namespace tm = memcim::telemetry;

/// Pool workers of the untraced runs, capped so the figures mean the
/// same on any host with at least this many cores.
constexpr std::size_t kMaxThreads = 2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

bool parse(int argc, char** argv, Options& opt) {
  bool have[4] = {};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
        have[0] = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
        have[1] = true;
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
        have[2] = opt.seconds > 0.0;
      } else if (key == "--trace") {
        opt.trace = value == "1";
        have[3] = value == "0" || value == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && std::all_of(std::begin(have), std::end(have),
                                       [](bool b) { return b; });
}

std::unique_ptr<Workload> make(const std::string& name, std::uint64_t seed) {
  if (name == "serve_mix") return make_serve_mix(seed);
  if (name == "table2_batch") return make_table2_batch(seed);
  if (name == "crossbar_vmm") return make_crossbar_vmm(seed);
  return nullptr;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Operations a check report fails, out of `attempted`: at least one
/// whenever any check was violated.
std::uint64_t failed_ops(const CheckReport& check, std::uint64_t attempted) {
  if (check.ok()) return 0;
  return std::clamp<std::uint64_t>(check.failed, 1, attempted);
}

/// min(kMaxThreads, cores this process may run on).
std::size_t untraced_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cores =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp<std::size_t>(static_cast<std::size_t>(cores), 1,
                                 kMaxThreads);
}

/// Peak resident set of this process image (VmHWM).  Not getrusage's
/// ru_maxrss: that survives exec, so it would report the launching
/// process's footprint whenever it exceeds this one's (a 14 MiB Python
/// launcher against an 8 MiB crossbar_vmm run).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.starts_with("VmHWM:"))
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
  return 0.0;
}

/// Thread-pool metrics of one round at the untraced thread count.
MetricMap parallel_layers(const tm::MetricsSnapshot& after,
                          const tm::MetricsSnapshot& before) {
  MetricMap m;
  std::uint64_t busy_ns = 0;
  for (const tm::CounterSample& c : after.counters)
    if (c.name.starts_with("parallel.worker") && c.name.ends_with(".busy_ns"))
      busy_ns += counter_delta(after, before, c.name);
  m["parallel.jobs"] = {
      static_cast<double>(counter_delta(after, before, "parallel.pool.jobs")),
      "count"};
  m["parallel.serial_regions"] = {
      static_cast<double>(
          counter_delta(after, before, "parallel.pool.serial_regions")),
      "count"};
  m["parallel.busy_s"] = {static_cast<double>(busy_ns) * 1e-9, "s"};
  return m;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t start_ns = steady_ns();
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: perfbench --workload <serve_mix|table2_batch|"
                 "crossbar_vmm> --seed <n> --seconds <s> --trace <0|1>\n";
    return 2;
  }
  const std::size_t threads = untraced_threads();
  tm::set_enabled(opt.trace);
  memcim::set_parallel_threads(opt.trace ? 1 : threads);

  std::unique_ptr<Workload> workload;
  try {
    workload = make(opt.workload, opt.seed);
  } catch (const std::exception& e) {
    std::cerr << "set-up failed: " << e.what() << '\n';
    return 1;
  }
  if (!workload) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  const double setup_s = seconds_since(start_ns);

  std::uint64_t attempted = workload->setup_attempted;
  std::uint64_t failed = failed_ops(workload->setup_check, attempted);
  CheckReport checks = workload->setup_check;

  const auto tally = [&](RoundResult& r, const RoundResult* first) {
    if (first != nullptr)
      for (const auto& [name, m] : r.sim)
        if (first->sim.at(name).value != m.value)
          r.check.fail("simulated " + name + " changed between rounds",
                       r.attempted);
    attempted += r.attempted;
    failed += failed_ops(r.check, r.attempted);
    checks.merge(r.check);
  };

  std::vector<RoundResult> rounds;
  double rss_mib = 0.0;
  const std::uint64_t measure_ns = steady_ns();
  do {
    try {
      rounds.push_back(workload->round(opt.trace));
    } catch (const std::exception& e) {
      std::cerr << "round threw: " << e.what() << '\n';
      return 1;
    }
    tally(rounds.back(), rounds.size() > 1 ? &rounds.front() : nullptr);
    // The footprint a user of one replay sees: set-up and one round.
    // Later rounds only add the heap fragmentation of repeating rounds in
    // one process, which varies with the number of rounds.
    if (rounds.size() == 1) rss_mib = peak_rss_mib();
  } while (seconds_since(measure_ns) < opt.seconds);

  std::vector<double> host;
  for (const RoundResult& r : rounds) host.push_back(r.host_s);
  MetricMap metrics;
  if (!opt.trace) {
    metrics["host_s"] = {median(host), "s"};
    metrics["setup_s"] = {setup_s, "s"};
    metrics["peak_rss_mib"] = {rss_mib, "MiB"};
  } else {
    // One more round at the untraced thread count, for the pool metrics.
    memcim::set_parallel_threads(threads);
    const tm::MetricsSnapshot before = tm::Registry::global().snapshot();
    RoundResult pooled;
    try {
      pooled = workload->round(true);
    } catch (const std::exception& e) {
      std::cerr << "round threw: " << e.what() << '\n';
      return 1;
    }
    const tm::MetricsSnapshot after = tm::Registry::global().snapshot();
    tally(pooled, &rounds.front());

    for (const auto& [name, unit] : per_layer_catalogue())
      metrics[name] = {0.0, unit};
    metrics["traced.host_s"] = {median(host), "s"};
    for (const auto& [name, m] : rounds.front().sim) metrics[name] = m;
    for (const auto& [name, m] : rounds.front().layers) {
      std::vector<double> values;
      for (const RoundResult& r : rounds)
        values.push_back(r.layers.at(name).value);
      metrics[name] = {median(values), m.unit};
    }
    for (const auto& [name, m] : parallel_layers(after, before))
      metrics[name] = m;
  }

  for (const std::string& e : checks.errors)
    std::cerr << "CHECK FAILED: " << e << '\n';
  std::cout << opt.workload << ": " << rounds.size() << " rounds, "
            << attempted << " operations, " << failed << " failed; round s:";
  for (const RoundResult& r : rounds) std::cout << ' ' << r.host_s;
  std::cout << '\n';
  const bool correct = checks.ok() && failed == 0;
  print_json(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
