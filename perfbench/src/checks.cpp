#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>

namespace perfbench {

using memcim::serving::Request;
using memcim::serving::RequestClass;
using memcim::serving::Response;
using memcim::serving::ServiceRunResult;

namespace {

constexpr std::size_t kMaxMessages = 8;

/// Rows of `resident` equal to `key`, ascending — the benchmark's own
/// scan behind every expected match set.
std::vector<std::size_t> scan_matches(const std::vector<Word>& resident,
                                      const Word& key) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < resident.size(); ++r)
    if (resident[r] == key) rows.push_back(r);
  return rows;
}

}  // namespace

void CheckReport::fail(const std::string& message, std::uint64_t ops) {
  failed += ops;
  if (errors.size() < kMaxMessages) errors.push_back(message);
}

void CheckReport::merge(const CheckReport& other) {
  failed += other.failed;
  for (const std::string& e : other.errors)
    if (errors.size() < kMaxMessages) errors.push_back(e);
}

CheckReport check_serving(const std::vector<Request>& trace,
                          const ServiceRunResult& result,
                          const ServeExpectation& expect) {
  CheckReport report;
  const std::uint64_t n = trace.size();
  const auto& stats = result.stats;
  if (stats.arrivals() != n || stats.completed() + stats.shed() != n ||
      stats.shed() != 0 || !result.shed.empty() ||
      stats.completed() != result.responses.size()) {
    std::ostringstream msg;
    msg << "serving conservation: trace " << n << ", arrivals "
        << stats.arrivals() << ", completed " << stats.completed()
        << ", shed " << stats.shed() << ", responses "
        << result.responses.size();
    report.fail(msg.str(), n);
    return report;
  }

  // Index responses by id; a missing or repeated id fails its request.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> at(n, kNone);
  std::vector<bool> bad(n, false);
  for (std::size_t i = 0; i < result.responses.size(); ++i) {
    const Response& r = result.responses[i];
    if (r.id >= n) {
      report.fail("response for unknown id " + std::to_string(r.id), 0);
      continue;
    }
    if (at[r.id] != kNone) {
      if (!bad[r.id])
        report.fail("request " + std::to_string(r.id) + " answered twice");
      bad[r.id] = true;
      continue;
    }
    at[r.id] = i;
  }

  // Batch shape: ≤ max_lanes lanes, one class, one dispatch/completion
  // instant, and batch_lanes equal to the lanes actually seen.
  struct BatchSeen {
    std::uint64_t lanes = 0;
    std::uint32_t claimed = 0;
    RequestClass cls = RequestClass::kAddition;
    std::uint64_t dispatched = 0;
    std::uint64_t completed = 0;
    bool consistent = true;
  };
  std::map<std::uint64_t, BatchSeen> batches;
  for (const Response& r : result.responses) {
    auto [it, fresh] = batches.try_emplace(r.batch_seq);
    BatchSeen& b = it->second;
    if (fresh) {
      b.claimed = r.batch_lanes;
      b.cls = r.cls;
      b.dispatched = r.dispatched;
      b.completed = r.completed;
    } else if (b.claimed != r.batch_lanes || b.cls != r.cls ||
               b.dispatched != r.dispatched || b.completed != r.completed) {
      b.consistent = false;
    }
    ++b.lanes;
  }
  for (const auto& [seq, b] : batches)
    if (!b.consistent || b.lanes > expect.max_lanes || b.lanes != b.claimed)
      report.fail("batch " + std::to_string(seq) + " has " +
                      std::to_string(b.lanes) + " lanes (claims " +
                      std::to_string(b.claimed) + ")",
                  b.lanes);

  const std::uint64_t mask = (std::uint64_t{1} << expect.add_width) - 1;
  for (std::uint64_t id = 0; id < n; ++id) {
    if (bad[id]) continue;
    if (at[id] == kNone) {
      report.fail("request " + std::to_string(id) + " has no response");
      continue;
    }
    const Request& q = trace[id];
    const Response& r = result.responses[at[id]];
    std::string why;
    if (r.cls != q.cls) {
      why = "class differs";
    } else if (r.arrival != q.arrival || r.dispatched < r.arrival ||
               r.completed <= r.dispatched) {
      why = "timestamps out of order";
    } else if (q.cls == RequestClass::kAddition) {
      if (r.sum != ((q.add_a + q.add_b) & mask)) why = "wrong sum";
    } else {
      const auto& resident = q.cls == RequestClass::kKmerQuery
                                 ? expect.kmer_words
                                 : expect.cam_words;
      if (r.matches != scan_matches(resident, q.key)) why = "wrong match set";
    }
    if (!why.empty())
      report.fail("request " + std::to_string(id) + ": " + why);
  }
  return report;
}

CheckReport check_sums(const std::vector<std::uint64_t>& a,
                       const std::vector<std::uint64_t>& b,
                       const std::vector<std::uint64_t>& sums,
                       std::size_t width) {
  CheckReport report;
  if (a.size() != b.size() || sums.size() != a.size()) {
    report.fail("adder job returned " + std::to_string(sums.size()) +
                    " sums for " + std::to_string(a.size()) + " operations",
                a.size());
    return report;
  }
  const std::uint64_t mask = (std::uint64_t{1} << width) - 1;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (sums[i] != ((a[i] + b[i]) & mask))
      report.fail("add " + std::to_string(i) + ": " + std::to_string(a[i]) +
                  " + " + std::to_string(b[i]) + " gave " +
                  std::to_string(sums[i]));
  return report;
}

CheckReport check_kmer_matches(
    const KmerSet& set, const std::vector<std::vector<std::size_t>>& matches) {
  CheckReport report;
  if (matches.size() != set.query_pos.size()) {
    report.fail("search returned " + std::to_string(matches.size()) +
                    " match sets for " +
                    std::to_string(set.query_pos.size()) + " queries",
                set.query_pos.size());
    return report;
  }
  for (std::size_t q = 0; q < set.query_pos.size(); ++q) {
    const std::string query = set.genome.substr(set.query_pos[q], set.k);
    std::vector<std::size_t> expected;
    for (std::size_t r = 0; r < set.row_pos.size(); ++r)
      if (set.genome.compare(set.row_pos[r], set.k, query) == 0)
        expected.push_back(r);
    if (matches[q] != expected)
      report.fail("query " + std::to_string(q) + ": " +
                  std::to_string(matches[q].size()) + " matches, scan finds " +
                  std::to_string(expected.size()));
  }
  return report;
}

CheckReport check_noc_books(const std::vector<memcim::NocDelivery>& deliveries,
                            const memcim::NocStats& stats, std::size_t width,
                            std::uint64_t ops) {
  CheckReport report;
  std::uint64_t hops = 0;
  std::uint64_t flits = 0;
  for (const memcim::NocDelivery& d : deliveries) {
    if (!d.done) {
      report.fail("packet " + std::to_string(d.tag) + " never delivered", ops);
      return report;
    }
    const auto dx = std::abs(static_cast<long long>(d.src % width) -
                             static_cast<long long>(d.dst % width));
    const auto dy = std::abs(static_cast<long long>(d.src / width) -
                             static_cast<long long>(d.dst / width));
    hops += d.flits * static_cast<std::uint64_t>(dx + dy);
    flits += d.flits;
  }
  if (stats.flit_hops != hops)
    report.fail("noc flit_hops " + std::to_string(stats.flit_hops) +
                    ", deliveries give " + std::to_string(hops),
                ops);
  else if (stats.ejections != stats.flits || stats.flits != flits ||
           stats.packets != deliveries.size())
    report.fail("noc books: " + std::to_string(stats.flits) + " flits, " +
                    std::to_string(stats.ejections) + " ejections, " +
                    std::to_string(flits) + " delivered flits",
                ops);
  return report;
}

CheckReport check_solution(const memcim::CrossbarSolution& sol,
                           std::size_t rows, std::size_t cols) {
  CheckReport report;
  if (!sol.converged) {
    report.fail("solve did not converge after " +
                std::to_string(sol.nonlinear_iterations) + " sweeps");
    return report;
  }
  if (sol.device_current.size() != rows * cols ||
      sol.row_terminal_current.size() != rows ||
      sol.col_terminal_current.size() != cols) {
    report.fail("solution has the wrong shape");
    return report;
  }
  double delivered = 0.0;
  double sunk = 0.0;
  double scale = 0.0;
  for (const double i : sol.row_terminal_current) {
    delivered += i;
    scale += std::abs(i);
  }
  for (const double i : sol.col_terminal_current) sunk += i;
  if (!(scale > 0.0)) {
    report.fail("no current delivered");
    return report;
  }
  double worst = std::abs(delivered + sunk);
  std::vector<double> col_sum(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double i = sol.device_current[r * cols + c];
      row_sum += i;
      col_sum[c] += i;
    }
    worst = std::max(worst, std::abs(sol.row_terminal_current[r] - row_sum));
  }
  for (std::size_t c = 0; c < cols; ++c)
    worst = std::max(worst, std::abs(sol.col_terminal_current[c] + col_sum[c]));
  if (!(worst <= kKirchhoffRelTol * scale)) {
    std::ostringstream msg;
    msg << "Kirchhoff imbalance " << worst / scale << " of the row current";
    report.fail(msg.str());
  }
  return report;
}

std::vector<double> weighted_sums(
    const std::vector<std::vector<double>>& weights,
    const std::vector<double>& x) {
  const std::size_t outputs = weights.empty() ? 0 : weights.front().size();
  std::vector<double> y(outputs, 0.0);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < outputs; ++j) y[j] += weights[i][j] * x[i];
  return y;
}

CheckReport check_vmm_outputs(const std::vector<double>& y,
                              const std::vector<double>& wtx, double x_sum,
                              double bound, double bound_above) {
  CheckReport report;
  if (y.size() != wtx.size()) {
    report.fail("product has the wrong length");
    return report;
  }
  for (std::size_t j = 0; j < y.size(); ++j) {
    const double err = (y[j] - wtx[j]) / x_sum;
    if (!(err <= bound_above && err >= -bound)) {
      std::ostringstream msg;
      msg << "output " << j << " off by " << err << " of full scale";
      report.fail(msg.str());
      return report;
    }
  }
  return report;
}

}  // namespace perfbench
