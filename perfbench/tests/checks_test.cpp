// Tests of the benchmark's output checkers: each checker accepts a
// genuine output of the simulator and rejects the same output with one
// corruption in it.  Run with `python3 perfbench/run.py --self-test` or
// `ctest` in the benchmark's build tree.
#include <cstdio>
#include <string>
#include <vector>

#include "arch/tile_fabric.h"
#include "checks.h"
#include "crossbar/vmm.h"
#include "device/presets.h"
#include "device/vcm.h"
#include "inputs.h"
#include "noc/mesh.h"
#include "serving/service.h"
#include "workloads/sharded.h"

namespace {

using namespace perfbench;
using memcim::serving::RequestClass;
using memcim::serving::ServiceRunResult;

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  if (cond) return;
  ++g_failures;
  std::printf("FAILED: %s\n", what.c_str());
}

void expect_accepts(const CheckReport& r, const std::string& what) {
  expect(r.ok(), what + " accepts the genuine output" +
                     (r.errors.empty() ? "" : " (" + r.errors[0] + ")"));
}

void expect_rejects(const CheckReport& r, const std::string& what) {
  expect(!r.ok() && r.failed >= 1, what + " is rejected");
}

// -- serving ------------------------------------------------------------------

struct ServeCase {
  std::vector<memcim::serving::Request> trace;
  ServiceRunResult result;
  ServeExpectation expect;
};

ServeCase serve_case() {
  memcim::TileFabricConfig fc;
  fc.tile.rows = 4;
  fc.tile.row_bits = 16;
  fc.tile.cell = memcim::presets::crs_cell();
  memcim::serving::ServingConfig sc;
  sc.workload.add_width = 16;
  sc.workload.adders_per_tile = 4;
  sc.workload.cam.rows = 4;
  sc.workload.cam.word_bits = 16;
  sc.workload.cam.cell = memcim::presets::crs_cell();

  ServeCase c;
  c.expect.kmer_words = random_words(1, 16, 16);
  c.expect.cam_words = random_words(2, 16, 16);
  ServeTraceShape shape;
  shape.requests = 600;
  shape.kmer_share = 0.2;
  shape.cam_share = 0.2;
  c.trace = make_serve_trace(3, shape);
  // Uniform keys almost never hit 16 resident words; give every fourth
  // search a resident word's key, so the match-set checks see hits.
  for (std::size_t i = 0; i < c.trace.size(); i += 4) {
    auto& r = c.trace[i];
    if (r.cls == RequestClass::kKmerQuery)
      r.key = c.expect.kmer_words[i % 16];
    else if (r.cls == RequestClass::kCamSearch)
      r.key = c.expect.cam_words[i % 16];
  }
  memcim::TileFabric fabric(fc);
  memcim::serving::WorkloadService svc(fabric, sc, c.expect.kmer_words,
                                       c.expect.cam_words);
  c.result = svc.run(c.trace);
  return c;
}

std::size_t first_of(const ServiceRunResult& r, RequestClass cls,
                     bool with_matches) {
  for (std::size_t i = 0; i < r.responses.size(); ++i)
    if (r.responses[i].cls == cls &&
        (!with_matches || !r.responses[i].matches.empty()))
      return i;
  return r.responses.size();
}

void test_serving() {
  const ServeCase genuine = serve_case();
  expect_accepts(check_serving(genuine.trace, genuine.result, genuine.expect),
                 "serving checker");

  {  // wrong sum
    ServeCase c = genuine;
    const std::size_t i = first_of(c.result, RequestClass::kAddition, false);
    c.result.responses.at(i).sum ^= 1;
    expect_rejects(check_serving(c.trace, c.result, c.expect), "a wrong sum");
  }
  {  // missing response
    ServeCase c = genuine;
    c.result.responses.pop_back();
    expect_rejects(check_serving(c.trace, c.result, c.expect),
                   "a missing response");
  }
  {  // one request answered twice, another never (counts still balance)
    ServeCase c = genuine;
    c.result.responses[1].id = c.result.responses[0].id;
    expect_rejects(check_serving(c.trace, c.result, c.expect),
                   "a duplicated response");
  }
  {  // wrong k-mer match set
    ServeCase c = genuine;
    const std::size_t i = first_of(c.result, RequestClass::kKmerQuery, true);
    c.result.responses.at(i).matches.clear();
    expect_rejects(check_serving(c.trace, c.result, c.expect),
                   "a wrong k-mer match set");
  }
  {  // wrong CAM match set
    ServeCase c = genuine;
    const std::size_t i = first_of(c.result, RequestClass::kCamSearch, false);
    c.result.responses.at(i).matches.push_back(15);
    expect_rejects(check_serving(c.trace, c.result, c.expect),
                   "a wrong CAM match set");
  }
  {  // completion before dispatch
    ServeCase c = genuine;
    c.result.responses[0].completed = c.result.responses[0].dispatched;
    expect_rejects(check_serving(c.trace, c.result, c.expect),
                   "a completion at the dispatch instant");
  }
  {  // batch wider than 64 lanes
    ServeCase c = genuine;
    c.expect.max_lanes = 1;
    expect_rejects(check_serving(c.trace, c.result, c.expect),
                   "a batch over the lane limit");
  }
  {  // a shed request
    ServeCase c = genuine;
    c.result.stats.per_class[2].shed += 1;
    c.result.stats.per_class[2].arrivals += 1;
    expect_rejects(check_serving(c.trace, c.result, c.expect),
                   "a shed request");
  }
}

// -- table2_batch -------------------------------------------------------------

void test_sums() {
  std::vector<std::uint64_t> a, b;
  redraw_add_operands(7, 1000, 32, a, b);
  std::vector<std::uint64_t> sums(a.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    sums[i] = (a[i] + b[i]) & 0xFFFFFFFFull;
  expect_accepts(check_sums(a, b, sums, 32), "sum checker");
  sums[500] += 1;
  expect_rejects(check_sums(a, b, sums, 32), "a sum that is off by one");

  // The redraw reproduces the stream the program draws from the same seed.
  memcim::Rng rng(7);
  bool same = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i] == static_cast<std::uint64_t>(
                               rng.uniform_int(0, 0xFFFFFFFFll));
    same = same && b[i] == static_cast<std::uint64_t>(
                               rng.uniform_int(0, 0xFFFFFFFFll));
  }
  expect(same, "operand redraw matches the documented stream");
}

void test_kmer_matches() {
  memcim::TileFabricConfig fc;
  fc.tile.rows = 16;
  fc.tile.row_bits = 16;
  fc.tile.cell = memcim::presets::crs_cell();
  memcim::TileFabric fabric(fc);
  const KmerSet set = make_kmer_set(5, 64, 40, 8);
  std::vector<Word> db, queries;
  for (const std::size_t p : set.row_pos)
    db.push_back(memcim::encode_kmer(set.genome, p, set.k));
  for (const std::size_t p : set.query_pos)
    queries.push_back(memcim::encode_kmer(set.genome, p, set.k));
  const memcim::ShardedSearchResult search =
      memcim::sharded_kmer_search(fabric, db, queries);
  expect_accepts(check_kmer_matches(set, search.matches), "k-mer checker");
  std::size_t hits = 0;
  for (const auto& m : search.matches) hits += m.empty() ? 0 : 1;
  expect(hits > 0 && hits < queries.size(), "queries mix hits and misses");

  auto wrong = search.matches;
  for (auto& m : wrong)
    if (!m.empty()) {
      m.pop_back();
      break;
    }
  expect_rejects(check_kmer_matches(set, wrong), "a wrong k-mer match set");

  // NoC books of the same run.
  const memcim::MeshNoc& noc = fabric.noc();
  expect_accepts(check_noc_books(noc.deliveries(), noc.stats(), noc.width(), 1),
                 "NoC book checker");
  memcim::NocStats off = noc.stats();
  off.flit_hops += 1;
  expect_rejects(check_noc_books(noc.deliveries(), off, noc.width(), 1),
                 "a flit_hops total that is off by one");
  off = noc.stats();
  off.ejections -= 1;
  expect_rejects(check_noc_books(noc.deliveries(), off, noc.width(), 1),
                 "an ejection count below the flit count");
}

// -- crossbar_vmm -------------------------------------------------------------

void test_crossbar() {
  constexpr std::size_t kN = 8;
  memcim::VmmConfig cfg;
  cfg.array.rows = kN;
  cfg.array.cols = kN;
  cfg.array.model = memcim::NetworkModel::kDistributed;
  memcim::VcmParams p = memcim::presets::vcm_taox();
  p.nonlinearity = 3.0;
  const memcim::VcmDevice device(p, 0.0);
  memcim::CrossbarVmm vmm(cfg, device);
  const VmmInputs in = make_vmm_inputs(9, kN, kN, 1);
  vmm.program(in.weights);
  memcim::LineBias bias;
  for (const double x : in.x[0]) bias.rows.emplace_back(cfg.v_read * x);
  bias.cols.assign(kN, memcim::Voltage(0.0));
  const memcim::CrossbarSolution sol = vmm.array().solve(bias);
  expect_accepts(check_solution(sol, kN, kN), "solution checker");

  memcim::CrossbarSolution stalled = sol;
  stalled.converged = false;
  expect_rejects(check_solution(stalled, kN, kN), "a non-converged solve");

  // One junction carrying an extra 1% of the array's current.
  double delivered = 0.0;
  for (const double i : sol.row_terminal_current) delivered += i;
  memcim::CrossbarSolution leaky = sol;
  leaky.device_current[kN + 3] += 0.01 * delivered;
  expect_rejects(check_solution(leaky, kN, kN), "a Kirchhoff imbalance");

  memcim::CrossbarSolution column = sol;
  column.col_terminal_current[2] *= 0.99;
  expect_rejects(check_solution(column, kN, kN),
                 "a column terminal current that does not balance");

  const std::vector<double> wtx = weighted_sums(in.weights, in.x[0]);
  double x_sum = 0.0;
  for (const double x : in.x[0]) x_sum += x;
  std::vector<double> y = wtx;
  expect_accepts(check_vmm_outputs(y, wtx, x_sum, 0.2, 1e-9), "VMM checker");
  y[3] = wtx[3] + 1e-3 * x_sum;
  expect_rejects(check_vmm_outputs(y, wtx, x_sum, 0.2, 1e-9),
                 "an output above Wᵀx");
  y[3] = wtx[3] - 0.3 * x_sum;
  expect_rejects(check_vmm_outputs(y, wtx, x_sum, 0.2, 1e-9),
                 "an output further below Wᵀx than the bound");
}

}  // namespace

int main() {
  test_serving();
  test_sums();
  test_kmer_matches();
  test_crossbar();
  if (g_failures == 0) std::printf("all checker tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
