// Output checkers of the benchmark.  Each compares what the simulator
// returned against a computation made here, apart from the program,
// or against a property the method must have.  They take plain data so
// the checker tests can hand them corrupted inputs.
//
// A checker counts the operations it finds wrong.  A violation of a
// property of the whole job (conservation, NoC books, Kirchhoff's law)
// fails every operation of that job.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crossbar/crossbar.h"
#include "inputs.h"
#include "noc/mesh.h"
#include "serving/service.h"

namespace perfbench {

struct CheckReport {
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few messages

  void fail(const std::string& message, std::uint64_t ops = 1);
  void merge(const CheckReport& other);
  [[nodiscard]] bool ok() const { return failed == 0 && errors.empty(); }
};

// -- serve_mix ----------------------------------------------------------------

struct ServeExpectation {
  std::size_t add_width = 16;
  std::size_t max_lanes = 64;
  std::vector<Word> kmer_words;  ///< resident k-mer database, global rows
  std::vector<Word> cam_words;   ///< resident CAM rows, global rows
};

/// Conservation (completed + shed = arrivals = trace length, 0 shed),
/// one response per id, arrival ≤ dispatched < completed, batches of at
/// most max_lanes lanes of one class, and every payload against the
/// benchmark's own arithmetic and scans.
[[nodiscard]] CheckReport check_serving(
    const std::vector<memcim::serving::Request>& trace,
    const memcim::serving::ServiceRunResult& result,
    const ServeExpectation& expect);

// -- table2_batch -------------------------------------------------------------

/// sums[i] == (a[i] + b[i]) mod 2^width for every operation.
[[nodiscard]] CheckReport check_sums(const std::vector<std::uint64_t>& a,
                                     const std::vector<std::uint64_t>& b,
                                     const std::vector<std::uint64_t>& sums,
                                     std::size_t width);

/// matches[q] == rows whose genome window equals query q's window, by a
/// string scan of the genome.
[[nodiscard]] CheckReport check_kmer_matches(
    const KmerSet& set, const std::vector<std::vector<std::size_t>>& matches);

/// NoC books against the delivery log: every packet delivered,
/// flit_hops == Σ flits·(|dx|+|dy|) (XY routes on a `width`-wide mesh)
/// and ejections == flits.  A violation fails `ops` operations.
[[nodiscard]] CheckReport check_noc_books(
    const std::vector<memcim::NocDelivery>& deliveries,
    const memcim::NocStats& stats, std::size_t width, std::uint64_t ops);

// -- crossbar_vmm -------------------------------------------------------------

/// Relative tolerance of the Kirchhoff balances below, against the
/// total current the rows deliver.  The nonlinear loop stops once a
/// sweep moves no node by 1 µV, about 1e-5 of a 0.1 V junction bias, so
/// junction currents taken at the final voltages may disagree with the
/// last linear solve by that share; 1e-4 leaves a factor of ten.
inline constexpr double kKirchhoffRelTol = 1e-4;

/// The solve converged, and currents balance: each row's terminal
/// current equals the sum of its junction currents, each column's
/// terminal current equals minus the sum of its junction currents, and
/// the row terminals deliver what the column terminals sink.
[[nodiscard]] CheckReport check_solution(const memcim::CrossbarSolution& sol,
                                         std::size_t rows, std::size_t cols);

/// Wᵀx for weights[i][j] (input i, output j), computed here.
[[nodiscard]] std::vector<double> weighted_sums(
    const std::vector<std::vector<double>>& weights,
    const std::vector<double>& x);

/// Decoded analog outputs against Wᵀx: every output within
/// `bound` · Σx below it and at most `bound_above` · Σx above it.
/// IR drop, and a sinh I–V whose chord conductance below V_read is
/// lower than at V_read, only ever lose current, so the upper bound is
/// tight and the lower one states the accuracy the analog product is
/// allowed.
[[nodiscard]] CheckReport check_vmm_outputs(const std::vector<double>& y,
                                            const std::vector<double>& wtx,
                                            double x_sum, double bound,
                                            double bound_above);

}  // namespace perfbench
