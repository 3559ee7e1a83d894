// Seeded input generation for the three benchmark workloads.
//
// Every input the benchmark hands the simulator is drawn here from the
// run's --seed with std::mt19937_64, so the same seed gives the same
// inputs and the program under test receives nothing but them.  The
// one exception is documented at redraw_add_operands: the adder job
// draws its operands inside the program from an Rng the benchmark
// seeds, and the benchmark redraws that stream on its own to check the
// sums.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serving/request.h"

namespace perfbench {

using Word = std::vector<bool>;

/// Derive an independent sub-seed for one input stream of a run.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// `count` uniformly random words of `bits` bits (LSB first).
[[nodiscard]] std::vector<Word> random_words(std::uint64_t seed,
                                             std::size_t count,
                                             std::size_t bits);

/// Shape of the serve_mix open-loop arrival trace: bench_serving's
/// (serving::generate_trace's distribution, drawn with the standard
/// library).
struct ServeTraceShape {
  std::size_t requests = 1'000'000;
  double mean_gap_ns = 100.0;  ///< exponential interarrival mean
  /// Share of k-mer and CAM requests; the rest are additions.
  double kmer_share = 0.05;
  double cam_share = 0.05;
  std::size_t key_bits = 16;
  std::size_t add_width = 16;
};

/// Open-loop arrival trace: ids 0..n-1, exponential gaps rounded to
/// whole ns, class by the mix, uniform operands and uniform random
/// search keys (so a key hits one of 16 resident 16-bit words with
/// probability about 16/2^16), all drawn from `seed`.
[[nodiscard]] std::vector<memcim::serving::Request> make_serve_trace(
    std::uint64_t seed, const ServeTraceShape& shape);

/// The operand stream sharded_parallel_add documents: one
/// memcim::Rng(seed), and per operation a then b, each
/// uniform_int(0, 2^width − 1).  Redrawn here with the standard library
/// alone, not with the program's Rng.
void redraw_add_operands(std::uint64_t seed, std::size_t operations,
                         std::size_t width, std::vector<std::uint64_t>& a,
                         std::vector<std::uint64_t>& b);

/// The table2_batch k-mer database and query set.
struct KmerSet {
  std::size_t k = 32;
  std::string genome;
  /// Genome position of each database row (row r = encode_kmer(genome,
  /// row_pos[r], k)).
  std::vector<std::size_t> row_pos;
  /// Genome position of each query's k-mer.
  std::vector<std::size_t> query_pos;
};

/// A random genome with repeated stretches, `rows` database rows cut at
/// a fixed stride, and `queries` query positions: about half start on a
/// row (hits, some of them matching several rows because of the
/// repeats) and the rest start between rows (misses, unless a repeat
/// makes them match).
[[nodiscard]] KmerSet make_kmer_set(std::uint64_t seed, std::size_t rows,
                                    std::size_t queries, std::size_t k);

/// Weights in [0, 1] (rows × cols) and `count` input vectors in [0, 1].
struct VmmInputs {
  std::vector<std::vector<double>> weights;
  std::vector<std::vector<double>> x;
};
[[nodiscard]] VmmInputs make_vmm_inputs(std::uint64_t seed, std::size_t rows,
                                        std::size_t cols, std::size_t count);

}  // namespace perfbench
