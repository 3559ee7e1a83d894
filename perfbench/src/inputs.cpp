#include "inputs.h"

#include <cmath>
#include <random>

namespace perfbench {

using memcim::serving::Request;
using memcim::serving::RequestClass;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream): decorrelated streams from one seed.
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::vector<Word> random_words(std::uint64_t seed, std::size_t count,
                               std::size_t bits) {
  std::mt19937_64 eng(seed);
  std::vector<Word> out(count, Word(bits));
  for (Word& w : out)
    for (std::size_t b = 0; b < bits; ++b) w[b] = (eng() & 1u) != 0;
  return out;
}

std::vector<Request> make_serve_trace(std::uint64_t seed,
                                      const ServeTraceShape& shape) {
  std::mt19937_64 eng(seed);
  std::exponential_distribution<double> gap(1.0 / shape.mean_gap_ns);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const std::uint64_t operand_max = (std::uint64_t{1} << shape.add_width) - 1;
  std::uniform_int_distribution<std::uint64_t> operand(0, operand_max);
  const auto random_key = [&] {
    Word key(shape.key_bits);
    for (std::size_t b = 0; b < shape.key_bits; ++b) key[b] = (eng() & 1u) != 0;
    return key;
  };

  std::vector<Request> trace(shape.requests);
  memcim::serving::VirtualNs clock = 0;
  for (std::size_t i = 0; i < shape.requests; ++i) {
    Request& r = trace[i];
    clock += static_cast<memcim::serving::VirtualNs>(std::llround(gap(eng)));
    r.id = i;
    r.arrival = clock;
    const double u = unit(eng);
    if (u < shape.kmer_share) {
      r.cls = RequestClass::kKmerQuery;
      r.key = random_key();
    } else if (u < shape.kmer_share + shape.cam_share) {
      r.cls = RequestClass::kCamSearch;
      r.key = random_key();
    } else {
      r.cls = RequestClass::kAddition;
      r.add_a = operand(eng);
      r.add_b = operand(eng);
    }
  }
  return trace;
}

void redraw_add_operands(std::uint64_t seed, std::size_t operations,
                         std::size_t width, std::vector<std::uint64_t>& a,
                         std::vector<std::uint64_t>& b) {
  std::mt19937_64 eng(seed);
  const auto max_operand =
      static_cast<std::int64_t>((std::uint64_t{1} << width) - 1);
  std::uniform_int_distribution<std::int64_t> draw(0, max_operand);
  a.resize(operations);
  b.resize(operations);
  for (std::size_t op = 0; op < operations; ++op) {
    a[op] = static_cast<std::uint64_t>(draw(eng));
    b[op] = static_cast<std::uint64_t>(draw(eng));
  }
}

KmerSet make_kmer_set(std::uint64_t seed, std::size_t rows,
                      std::size_t queries, std::size_t k) {
  static constexpr char kBases[4] = {'A', 'C', 'G', 'T'};
  const std::size_t stride = k / 2;
  KmerSet set;
  set.k = k;
  std::mt19937_64 eng(seed);
  const std::size_t length = rows * stride + k;
  set.genome.resize(length);
  for (char& c : set.genome) c = kBases[eng() & 3u];
  set.row_pos.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) set.row_pos[r] = r * stride;

  // Repeats: copy the k-mer of one row over another row's window, so
  // some k-mers occur at several rows (and neighbouring windows change
  // with them — the checker scans the final genome, whatever it holds).
  std::uniform_int_distribution<std::size_t> pick_row(0, rows - 1);
  for (std::size_t i = 0; i < rows / 16; ++i) {
    const std::size_t from = set.row_pos[pick_row(eng)];
    const std::size_t to = set.row_pos[pick_row(eng)];
    const std::string window = set.genome.substr(from, k);
    set.genome.replace(to, k, window);
  }

  std::uniform_int_distribution<std::size_t> pick_offset(1, stride - 1);
  set.query_pos.resize(queries);
  for (std::size_t q = 0; q < queries; ++q) {
    const std::size_t base = set.row_pos[pick_row(eng)];
    // Even queries start on a row; odd ones start between two rows.
    set.query_pos[q] = q % 2 == 0 ? base : base + pick_offset(eng);
  }
  return set;
}

VmmInputs make_vmm_inputs(std::uint64_t seed, std::size_t rows,
                          std::size_t cols, std::size_t count) {
  std::mt19937_64 eng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  VmmInputs in;
  in.weights.assign(rows, std::vector<double>(cols));
  for (auto& row : in.weights)
    for (double& w : row) w = unit(eng);
  in.x.assign(count, std::vector<double>(rows));
  for (auto& x : in.x)
    for (double& xi : x) xi = unit(eng);
  return in;
}

}  // namespace perfbench
