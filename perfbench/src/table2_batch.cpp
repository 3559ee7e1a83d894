// table2_batch: the paper's two Table 2 workloads as offline batch jobs
// on one 4×4 fabric of 64-row, 64-bit tiles.
//
//   * 10^6 32-bit additions through sharded_parallel_add (a packed
//     TC-adder farm of 256 adders per tile);
//   * k-mer queries through sharded_kmer_search against a 16×64-row
//     database of encode_kmer rows (k = 32) cut from a seeded genome.
//     The query count keeps the NoC's per-cycle release rescan (which
//     grows with queries²) a visible share of the job, about a third of
//     its host time, while the packet records it rescans stay well
//     inside a core's L2.  At 256 queries they did not, and host time
//     followed the cache contention of other tenants of the host.
#include <algorithm>

#include "arch/tile_fabric.h"
#include "common/rng.h"
#include "device/presets.h"
#include "workload.h"
#include "workloads/sharded.h"

namespace perfbench {

namespace {

namespace tm = memcim::telemetry;
using memcim::TileFabric;
using memcim::TileFabricConfig;

constexpr std::size_t kMeshSide = 4;
constexpr std::size_t kRowsPerTile = 64;
constexpr std::size_t kK = 32;  // 2k = 64 bits per row
constexpr std::size_t kAdditions = 1'000'000;
constexpr std::size_t kAddWidth = 32;
constexpr std::size_t kAddersPerTile = 256;
constexpr std::size_t kQueries = 128;

TileFabricConfig fabric_config() {
  TileFabricConfig cfg;
  cfg.width = kMeshSide;
  cfg.height = kMeshSide;
  cfg.tile.rows = kRowsPerTile;
  cfg.tile.row_bits = 2 * kK;
  cfg.tile.cell = memcim::presets::crs_cell();
  return cfg;
}

memcim::ParallelAddParams add_params(std::size_t operations) {
  memcim::ParallelAddParams p;
  p.operations = operations;
  p.width = kAddWidth;
  p.adders = kAddersPerTile;
  return p;
}

class Table2Batch final : public Workload {
 public:
  explicit Table2Batch(std::uint64_t seed)
      : add_seed_(sub_seed(seed, 11)),
        kmers_(make_kmer_set(sub_seed(seed, 12),
                             kMeshSide * kMeshSide * kRowsPerTile, kQueries,
                             kK)) {
    redraw_add_operands(add_seed_, kAdditions, kAddWidth, op_a_, op_b_);
    database_.reserve(kmers_.row_pos.size());
    for (const std::size_t pos : kmers_.row_pos)
      database_.push_back(memcim::encode_kmer(kmers_.genome, pos, kK));
    queries_.reserve(kmers_.query_pos.size());
    for (const std::size_t pos : kmers_.query_pos)
      queries_.push_back(memcim::encode_kmer(kmers_.genome, pos, kK));

    // Warm-up on a throwaway fabric: compiles and caches the compare
    // kernel and builds the adder tables before any round is timed.
    TileFabric fabric(fabric_config());
    memcim::Rng rng(add_seed_);
    (void)memcim::sharded_parallel_add(
        fabric, add_params(kMeshSide * kMeshSide * kAddersPerTile),
        memcim::presets::crs_cell(), rng);
    (void)memcim::sharded_kmer_search(
        fabric, database_, {queries_.front(), queries_.back()});
  }

  RoundResult round(bool traced) override {
    RoundResult out;
    out.attempted = kAdditions + kQueries;
    TileFabric fabric(fabric_config());
    memcim::Rng rng(add_seed_);

    const auto snap = [traced] {
      return traced ? tm::Registry::global().snapshot() : tm::MetricsSnapshot{};
    };
    const tm::MetricsSnapshot s0 = snap();
    const std::uint64_t t0 = steady_ns();
    const memcim::ShardedAddResult add = memcim::sharded_parallel_add(
        fabric, add_params(kAdditions), memcim::presets::crs_cell(), rng);
    const double add_s = seconds_since(t0);
    const tm::MetricsSnapshot s1 = snap();
    // The add job runs its NoC to completion: what follows is the search's.
    const memcim::NocStats add_noc = fabric.noc().stats();
    const std::uint64_t t1 = steady_ns();
    const memcim::ShardedSearchResult search =
        memcim::sharded_kmer_search(fabric, database_, queries_);
    out.host_s = add_s + seconds_since(t1);
    const tm::MetricsSnapshot s2 = snap();

    out.check = check_sums(op_a_, op_b_, add.merged.sums, kAddWidth);
    out.check.merge(check_kmer_matches(kmers_, search.matches));
    const memcim::MeshNoc& noc = fabric.noc();
    out.check.merge(check_noc_books(noc.deliveries(), noc.stats(), noc.width(),
                                    out.attempted));

    const auto per = [](double total, std::size_t ops) {
      return total / static_cast<double>(ops);
    };
    out.sim["sim_add_ns_per_op"] = {per(add.run.latency.value() * 1e9, kAdditions),
                                    "ns"};
    out.sim["sim_add_fj_per_op"] = {per(add.run.energy().value() * 1e15, kAdditions),
                                    "fJ"};
    out.sim["sim_search_ns_per_query"] = {
        per(search.run.latency.value() * 1e9, kQueries), "ns"};
    out.sim["sim_search_fj_per_query"] = {
        per(search.run.energy().value() * 1e15, kQueries), "fJ"};
    if (!traced) return out;

    // NoC replay of the search: its span minus the shard compute inside,
    // over the search's own NoC traffic.
    const double replay_s =
        std::max(0.0, span_s(s2, s1, "workload.sharded_search") -
                          span_s(s2, s1, "workload.shard_compute"));
    out.layers = counter_layers(s2, s0);
    out.layers.merge(noc_layers(noc.stats(), add_noc, replay_s));
    return out;
  }

 private:
  std::uint64_t add_seed_;
  KmerSet kmers_;
  std::vector<std::uint64_t> op_a_, op_b_;
  std::vector<Word> database_;
  std::vector<Word> queries_;
};

}  // namespace

std::unique_ptr<Workload> make_table2_batch(std::uint64_t seed) {
  return std::make_unique<Table2Batch>(seed);
}

}  // namespace perfbench
